package core

import (
	"runtime/debug"
	"testing"

	"bxsoap/internal/bxdm"
)

// TestChurnCodecAllocBudget pins the codec allocations of an in-memory
// shape-churn exchange: 64 shapes cycled through 16-entry XML plan
// caches, each message encoded by one templated codec and decoded by
// another, as a client and a server would. Every shape recurs only after
// 63 others, so admission keeps every message on the generic codecs; the
// count moves if a churning shape starts compiling again, or when either
// generic XML codec changes its allocations.
func TestChurnCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 86
	cli := newTemplatedCodec(XMLEncoding{}, 16, nil)
	srv := newTemplatedCodec(XMLEncoding{}, 16, nil)
	envs := churnEnvs(64)
	i := 0
	exchange := func() {
		p, err := cli.EncodePayload(envs[i%len(envs)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.DecodePayload(p); err != nil {
			t.Fatal(err)
		}
		p.Release()
		i++
	}
	// Two warm-up cycles settle the payload pools and size hints; the
	// measured 640 exchanges are ten whole cycles.
	for w := 0; w < 2*len(envs); w++ {
		exchange()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(10*len(envs), exchange); got > budget {
		t.Errorf("%.0f allocs per churn exchange, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocs per churn exchange (budget %d)", got, budget)
	}
}

// releasingSink drops every chunk it is handed.
type releasingSink struct{}

func (releasingSink) WriteChunk(p *Payload, _ bool) error {
	p.Release()
	return nil
}

func (releasingSink) Abort() {}

// TestStreamedXMLEncodeAllocBudget pins a streamed XML encode: 2000 float64
// items in 4 KiB windows, about ten chunks, every chunk from the warm pool.
// The encoder writes into the pending pooled chunk itself and a warm XML
// encoder allocates nothing of its own, so the one allocation left is the
// chunk writer, which escapes as the encoder's sink: no buffer per window
// or per message.
func TestStreamedXMLEncodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 1
	items := make([]float64, 2000)
	for i := range items {
		items[i] = float64(i) * 1.5
	}
	doc := NewEnvelope(bxdm.NewArray(bxdm.LocalName("a"), items)).Document()
	encode := func() {
		if err := (XMLEncoding{}).EncodeChunks(doc, 4096, releasingSink{}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 10; w++ {
		encode()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(200, encode); got > budget {
		t.Errorf("%.1f allocs per streamed XML encode, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocs per streamed XML encode (budget %d)", got, budget)
	}
}
