package bxsa

import (
	"os"
	"path/filepath"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/xbs"
)

// FuzzParse drives the BXSA decoder with arbitrary bytes through every read
// path: Parse, DecodeReader and a recursive Scanner walk. None may panic or
// hang; hostile input either decodes or returns an error. The two sources
// must agree, both rejecting or both returning equal trees, and the Scanner
// must reproduce a tree that Parse accepted. Anything that decodes must
// survive a re-encode: a tree the decoder accepts but the encoder rejects
// means the two passes disagree about the model's invariants.
func FuzzParse(f *testing.F) {
	for _, doc := range []*bxdm.Document{testTree(), transcodeTree()} {
		for _, order := range []xbs.ByteOrder{xbs.LittleEndian, xbs.BigEndian} {
			seed, err := Marshal(doc.Root(), EncodeOptions{Order: order})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("BXSA"))
	corpus, err := filepath.Glob(filepath.Join(wireCorpusDir, "*.bxsa"))
	if err != nil || len(corpus) == 0 {
		f.Fatalf("no wire corpus in %s: %v", wireCorpusDir, err)
	}
	for _, path := range corpus {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := Parse(data)
		streamed, serr := decodeOneByte(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("Parse error %v, DecodeReader error %v", err, serr)
		}
		if err != nil {
			_ = scanWalk(NewScanner(data), nil)
			return
		}
		if !bxdm.Equal(n, streamed) {
			t.Fatal("Parse and DecodeReader decoded different trees")
		}
		if err := scanWalk(NewScanner(data), []bxdm.Node{n}); err != nil {
			t.Fatalf("Scanner walk of a parsed document: %v", err)
		}
		if _, err := Marshal(n, EncodeOptions{}); err != nil {
			t.Fatalf("decoded tree failed to re-encode: %v", err)
		}
	})
}
