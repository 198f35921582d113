package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
)

// pairBytes is the native size of one (int32 index, float64 value) pair,
// the unit payload_mb_per_s counts in.
const pairBytes = 12

// message is one generated request together with the answer the handler
// must give for it.
type message struct {
	model dataset.Model
	env   *core.Envelope
	count int32
	xor   uint64
}

// genModel draws n pressure-like values in [850,1050]. Three of every four
// are quantised to 1/8, which bxdm formats on its eighths fast path; every
// fourth is quantised to 1/100 and nudged off the 1/8 grid (k/100 is an
// eighth exactly when k is a multiple of 25), so a fixed quarter of the
// values takes the general float formatter.
func genModel(r *rand.Rand, n int) dataset.Model {
	m := dataset.Model{Index: make([]int32, n), Values: make([]float64, n)}
	for i := range m.Values {
		m.Index[i] = int32(i)
		base := 850 + 199.9*r.Float64()
		if i%4 == 3 {
			h := int64(math.Round(base * 100))
			if h%25 == 0 {
				h++
			}
			m.Values[i] = float64(h) / 100
		} else {
			m.Values[i] = math.Round(base*8) / 8
		}
	}
	return m
}

func newMessage(m dataset.Model) *message {
	count, xor := checksum(m)
	return &message{model: m, env: core.NewEnvelope(m.Element()), count: count, xor: xor}
}

// genMessages builds the workload's message cycle from the seed: one
// message per entry of shapes (pair counts), in a seed-shuffled order.
func genMessages(seed int64, workload string, shapes []int) []*message {
	var salt int64
	for _, c := range workload {
		salt = salt*131 + int64(c)
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + salt))
	order := r.Perm(len(shapes))
	msgs := make([]*message, len(shapes))
	for i, j := range order {
		msgs[i] = newMessage(genModel(r, shapes[j]))
	}
	return msgs
}

// checksum is the work the benchmark's handler does on every request: it
// counts the entries whose index matches their position and whose value is
// in range, and folds every value's bit pattern into one word, so a reply
// proves that each value crossed both codecs bit-exactly.
func checksum(m dataset.Model) (count int32, xor uint64) {
	for i, v := range m.Values {
		if int(m.Index[i]) == i && v >= 850 && v <= 1050 {
			count++
		}
		xor ^= math.Float64bits(v)
	}
	return count, xor
}

var (
	replyName = bxdm.PName(dataset.Namespace, "lead", "checked")
	countName = bxdm.Name(dataset.Namespace, "count")
	xorName   = bxdm.Name(dataset.Namespace, "xor")
)

// handle is the service every workload calls.
func handle(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
	body := req.Body()
	if body == nil {
		return nil, &core.Fault{Code: core.FaultClient, String: "empty body"}
	}
	m, err := dataset.FromElement(body)
	if err != nil {
		return nil, &core.Fault{Code: core.FaultClient, String: err.Error()}
	}
	count, xor := checksum(m)
	res := bxdm.NewElement(replyName)
	res.DeclareNamespace("lead", dataset.Namespace)
	res.Append(bxdm.NewLeaf(countName, count), bxdm.NewLeaf(xorName, xor))
	return core.NewEnvelope(res), nil
}

// verify compares a reply with the answer precomputed for m.
func (m *message) verify(resp *core.Envelope) error {
	body := resp.Body()
	el, ok := body.(*bxdm.Element)
	if !ok {
		return fmt.Errorf("reply body is %T, want element", body)
	}
	count, err := leafUint(el, countName)
	if err != nil {
		return err
	}
	xor, err := leafUint(el, xorName)
	if err != nil {
		return err
	}
	if int32(count) != m.count || int(m.count) != m.model.Size() || xor != m.xor {
		return fmt.Errorf("reply {count %d, xor %#x}, want {count %d, xor %#x}", count, xor, m.model.Size(), m.xor)
	}
	return nil
}

func leafUint(el *bxdm.Element, name bxdm.QName) (uint64, error) {
	switch c := el.FirstChild(name).(type) {
	case *bxdm.LeafElement:
		return c.Value.Uint64(), nil
	default:
		return 0, fmt.Errorf("reply has no %s leaf", name.Local)
	}
}
