package main

import (
	"bytes"
	"context"
	"math"
	"sort"
	"strconv"
	"testing"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/core"
	"bxsoap/internal/xmltext"
)

func encodeAll(t *testing.T, msgs []*message) (bin, xml [][]byte) {
	t.Helper()
	for _, m := range msgs {
		b, err := bxsa.MarshalAppend(nil, m.env.Document(), bxsa.EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x, err := xmltext.AppendEncode(nil, m.env.Document(), xmlEncodeOpts)
		if err != nil {
			t.Fatal(err)
		}
		bin, xml = append(bin, b), append(xml, x)
	}
	return bin, xml
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, w := range []string{"rpc-small", "shape-churn"} {
		wl, err := findWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		bin1, xml1 := encodeAll(t, genMessages(7, wl.name, wl.shapes))
		bin2, xml2 := encodeAll(t, genMessages(7, wl.name, wl.shapes))
		for i := range bin1 {
			if !bytes.Equal(bin1[i], bin2[i]) || !bytes.Equal(xml1[i], xml2[i]) {
				t.Fatalf("%s: message %d encodes differently for the same seed", w, i)
			}
		}
		other := genMessages(8, wl.name, wl.shapes)
		same := 0
		for i, m := range genMessages(7, wl.name, wl.shapes) {
			if m.xor == other[i].xor && m.model.Size() == other[i].model.Size() {
				same++
			}
		}
		if same != 0 {
			t.Errorf("%s: %d messages have the same values under seeds 7 and 8", w, same)
		}
	}
}

// wireBytesFor runs a fixed number of calls of one workload and returns the
// client-side bytes they put on and took off the wire.
func wireBytesFor(t *testing.T, name string, seed int64, calls int) int64 {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	msgs := genMessages(seed, w.name, w.shapes)
	r, err := w.setup(handle, observers{})
	if err != nil {
		t.Fatal(err)
	}
	st := runCallers(r.call, msgs, 1, time.Time{}, calls)
	c := r.client.load()
	if err := teardown(r); err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 {
		t.Fatalf("%s: %d of %d calls failed: %v", name, st.failed, st.attempted, st.firstErr)
	}
	return c.bytesRead + c.bytesWritten
}

func TestSameSeedSameWireBytes(t *testing.T) {
	for _, name := range []string{"rpc-small", "xml-array", "shape-churn"} {
		a, b := wireBytesFor(t, name, 3, 128), wireBytesFor(t, name, 3, 128)
		if a != b || a == 0 {
			t.Errorf("%s: %d then %d wire bytes for 128 calls under one seed", name, a, b)
		}
	}
}

func TestHundredthsLeaveTheEighthsGrid(t *testing.T) {
	m := genMessages(1, "xml-array", []int{1000})[0].model
	offGrid := 0
	for i, v := range m.Values {
		if v < 850 || v > 1050 {
			t.Fatalf("value %d = %v out of range", i, v)
		}
		if int(m.Index[i]) != i {
			t.Fatalf("index %d = %d", i, m.Index[i])
		}
		lex := string(bxdm.Array[float64]{Items: m.Values[i : i+1]}.AppendAllLexical(nil, " "))
		onGrid := v*8 == math.Trunc(v*8)
		if i%4 != 3 {
			if !onGrid {
				t.Fatalf("value %d = %v should be a multiple of 1/8", i, v)
			}
			continue
		}
		// Not a multiple of 1/8, so its shortest decimal form is not the
		// <int>[.eighth] form the fast path writes, and it has exactly the
		// two decimals it was quantised to.
		if onGrid {
			t.Fatalf("value %d = %v is on the 1/8 grid", i, v)
		}
		nearest := math.Round(v*8) / 8
		if lex == strconv.FormatFloat(nearest, 'g', -1, 64) {
			t.Fatalf("value %d formats as its 1/8-grid neighbour %s", i, lex)
		}
		if v*100 != math.Round(v*100) && math.Abs(v*100-math.Round(v*100)) > 1e-9 {
			t.Fatalf("value %d = %v is not a multiple of 1/100", i, v)
		}
		if back, err := strconv.ParseFloat(lex, 64); err != nil || back != v {
			t.Fatalf("value %d: %q does not parse back to %v", i, lex, v)
		}
		offGrid++
	}
	if offGrid != 250 {
		t.Errorf("%d of 1000 values leave the fast path, want a quarter", offGrid)
	}
}

func TestChurnCycleIsASeedFixedPermutation(t *testing.T) {
	w, err := findWorkload("shape-churn")
	if err != nil {
		t.Fatal(err)
	}
	sizes := func(seed int64) []int {
		var s []int
		for _, m := range genMessages(seed, w.name, w.shapes) {
			s = append(s, m.model.Size())
		}
		return s
	}
	a, again, b := sizes(5), sizes(5), sizes(6)
	sorted := append([]int(nil), a...)
	sort.Ints(sorted)
	for i, n := range sorted {
		if n != 16+i {
			t.Fatalf("cycle is not a permutation of 16..79: %v", a)
		}
	}
	differs, shuffled := false, false
	for i := range a {
		if a[i] != again[i] {
			t.Fatalf("seed 5 gave two different cycles")
		}
		differs = differs || a[i] != b[i]
		shuffled = shuffled || a[i] != 16+i
	}
	if !differs || !shuffled {
		t.Errorf("cycle does not depend on the seed (differs=%v shuffled=%v)", differs, shuffled)
	}
}

func TestVerifyCatchesAWrongAnswer(t *testing.T) {
	m := genMessages(1, "rpc-small", []int{8})[0]
	resp, err := handle(context.Background(), m.env)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.verify(resp); err != nil {
		t.Errorf("the handler's own reply does not verify: %v", err)
	}
	// One flipped bit in one value must change the answer.
	bad := m.model
	bad.Values = append([]float64(nil), bad.Values...)
	bad.Values[3] = math.Float64frombits(math.Float64bits(bad.Values[3]) ^ 1)
	resp, err = handle(context.Background(), core.NewEnvelope(bad.Element()))
	if err != nil {
		t.Fatal(err)
	}
	if m.verify(resp) == nil {
		t.Error("a reply computed from different values verified")
	}
	// An index out of order drops the count.
	bad = m.model
	bad.Index = append([]int32(nil), bad.Index...)
	bad.Index[0], bad.Index[1] = bad.Index[1], bad.Index[0]
	resp, err = handle(context.Background(), core.NewEnvelope(bad.Element()))
	if err != nil {
		t.Fatal(err)
	}
	if m.verify(resp) == nil {
		t.Error("a reply counting swapped indices verified")
	}
}
