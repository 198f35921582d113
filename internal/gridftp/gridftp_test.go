package gridftp

import (
	"bytes"
	"crypto/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bxsoap/internal/netsim"
)

// fastOpts keeps unit tests quick; benchmarks use realistic work.
func fastOpts(streams int) Options {
	return Options{Streams: streams, HandshakeWork: 64, HandshakeRounds: 4, BlockSize: 8 << 10}
}

func newTestServer(t *testing.T, files map[string][]byte, opts Options) (*Server, *netsim.Network) {
	t.Helper()
	root := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(root, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	nw := netsim.New(netsim.Profile{})
	srv, err := NewServer(nw, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, nw
}

func randBytes(t *testing.T, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRetrieveSingleStream(t *testing.T) {
	payload := randBytes(t, 100<<10)
	srv, nw := newTestServer(t, map[string][]byte{"data.nc": payload}, fastOpts(1))
	cl, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	local := filepath.Join(t.TempDir(), "out.nc")
	n, err := cl.Retrieve("data.nc", local)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("retrieved %d bytes, want %d", n, len(payload))
	}
	got, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted")
	}
}

func TestRetrieveParallelStreams(t *testing.T) {
	// Payload large enough that blocks interleave across 4 streams.
	payload := randBytes(t, 300<<10)
	srv, nw := newTestServer(t, map[string][]byte{"big.nc": payload}, fastOpts(4))
	cl, err := Dial(nw, srv.Addr(), fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	local := filepath.Join(t.TempDir(), "out.nc")
	if _, err := cl.Retrieve("big.nc", local); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("out-of-order reassembly corrupted payload")
	}
}

func TestStore(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(2))
	payload := randBytes(t, 150<<10)
	src := filepath.Join(t.TempDir(), "src.nc")
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(nw, srv.Addr(), fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	n, err := cl.Store(src, "stored.nc")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("stored %d bytes", n)
	}
	got, err := os.ReadFile(filepath.Join(srv.root, "stored.nc"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("stored payload corrupted")
	}
}

func TestSequentialTransfersOneSession(t *testing.T) {
	files := map[string][]byte{
		"a.nc": randBytes(t, 10<<10),
		"b.nc": randBytes(t, 20<<10),
	}
	srv, nw := newTestServer(t, files, fastOpts(1))
	cl, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	dir := t.TempDir()
	for name, want := range files {
		local := filepath.Join(dir, name)
		if _, err := cl.Retrieve(name, local); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _ := os.ReadFile(local)
		if !bytes.Equal(got, want) {
			t.Errorf("%s corrupted", name)
		}
	}
}

func TestRetrieveMissingFile(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(1))
	cl, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	if _, err := cl.Retrieve("ghost.nc", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("missing file retrieved")
	}
}

func TestPathEscapeRejected(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(1))
	cl, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	if _, err := cl.Retrieve("../../etc/hostname", filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("path escape retrieved")
	}
}

func TestHandshakeRejectsBadToken(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(1))
	conn, err := nw.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newCtrl(conn)
	if _, err := c.expect("220"); err != nil {
		t.Fatal(err)
	}
	if err := c.sendf("AUTH GSSAPI"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.expect("334"); err != nil {
		t.Fatal(err)
	}
	if err := c.sendf("ADAT deadbeef"); err != nil {
		t.Fatal(err)
	}
	line, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	if line[:3] != "535" {
		t.Errorf("bad token answer = %q, want 535", line)
	}
}

func TestTransferRequiresAuth(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(1))
	conn, err := nw.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newCtrl(conn)
	if _, err := c.expect("220"); err != nil {
		t.Fatal(err)
	}
	if err := c.sendf("SPAS 2"); err != nil {
		t.Fatal(err)
	}
	line, _ := c.recv()
	if line[:3] != "530" {
		t.Errorf("unauthenticated SPAS answer = %q, want 530", line)
	}
}

func TestHandshakeCostScalesWithWork(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	srvCheap, nwCheap := newTestServer(t, nil, Options{HandshakeWork: 64, HandshakeRounds: 4})
	srvDear, nwDear := newTestServer(t, nil, Options{HandshakeWork: 1 << 19, HandshakeRounds: 4})

	start := time.Now()
	cl1, err := Dial(nwCheap, srvCheap.Addr(), Options{HandshakeWork: 64, HandshakeRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	cheap := time.Since(start)
	cl1.Quit()

	start = time.Now()
	cl2, err := Dial(nwDear, srvDear.Addr(), Options{HandshakeWork: 1 << 19, HandshakeRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	dear := time.Since(start)
	cl2.Quit()

	if dear < cheap*3 {
		t.Errorf("handshake cost not scaling: cheap=%v dear=%v", cheap, dear)
	}
}

func TestEBlockHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := eblockHeader{flags: flagEOD, length: 1234567, offset: 89101112}
	if err := writeEBlockHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != eblockHeaderLen {
		t.Fatalf("header length %d", buf.Len())
	}
	back, err := readEBlockHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("header round trip %+v != %+v", back, h)
	}
}

func TestSendReceiveEBlocksDirect(t *testing.T) {
	// Drive the striping machinery over in-memory pipes with 3 streams.
	payload := randBytes(t, 100_000)
	var srvConns, cliConns []net.Conn
	for i := 0; i < 3; i++ {
		a, b := net.Pipe()
		srvConns = append(srvConns, a)
		cliConns = append(cliConns, b)
	}
	out := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := receiveEBlocks(cliConns, f)
		done <- err
	}()
	if err := sendEBlocks(srvConns, bytes.NewReader(payload), int64(len(payload)), 7000); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, _ := os.ReadFile(out)
	if !bytes.Equal(got, payload) {
		t.Error("direct eblock round trip corrupted")
	}
}

func TestQuitThenServerStillServesOthers(t *testing.T) {
	srv, nw := newTestServer(t, map[string][]byte{"f": randBytes(t, 1024)}, fastOpts(1))
	cl1, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	cl1.Quit()
	cl2, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Quit()
	if _, err := cl2.Retrieve("f", filepath.Join(t.TempDir(), "f")); err != nil {
		t.Fatal(err)
	}
}
