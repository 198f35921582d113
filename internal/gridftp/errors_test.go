package gridftp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bxsoap/internal/netsim"
)

func TestStoreMissingLocalFile(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(1))
	cl, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	if _, err := cl.Store(filepath.Join(t.TempDir(), "ghost"), "out.nc"); err == nil {
		t.Error("Store of missing local file succeeded")
	}
}

func TestStorePathEscapeConfined(t *testing.T) {
	// Client paths are rooted chroot-style: "../../evil" resolves inside
	// the server root, never outside it.
	srv, nw := newTestServer(t, nil, fastOpts(1))
	cl, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	src := filepath.Join(t.TempDir(), "src")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Store(src, "../../evil"); err != nil {
		t.Fatalf("confined store failed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(srv.root, "evil")); err != nil {
		t.Errorf("file not confined to root: %v", err)
	}
	parent := filepath.Dir(filepath.Dir(srv.root))
	if _, err := os.Stat(filepath.Join(parent, "evil")); err == nil {
		t.Error("path escaped the server root")
	}
}

func TestUnknownCommandAnswered(t *testing.T) {
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
	if err := c.sendf("FEAT"); err != nil {
		t.Fatal(err)
	}
	line, err := c.recv()
	if err != nil || !strings.HasPrefix(line, "500") {
		t.Errorf("unknown verb reply = %q, %v", line, err)
	}
}

func TestBadAuthMechanismRejected(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(1))
	conn, err := nw.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newCtrl(conn)
	c.expect("220")
	c.sendf("AUTH TLS")
	line, _ := c.recv()
	if !strings.HasPrefix(line, "504") {
		t.Errorf("AUTH TLS reply = %q", line)
	}
}

func TestSPASValidation(t *testing.T) {
	srv, nw := newTestServer(t, nil, fastOpts(1))
	cl, err := Dial(nw, srv.Addr(), fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Quit()
	// Drive raw commands through the authenticated session's control
	// channel: invalid stream counts must draw a 501.
	cl.mu.Lock()
	cl.c.sendf("SPAS zero")
	line, _ := cl.c.recv()
	cl.mu.Unlock()
	if !strings.HasPrefix(line, "501") {
		t.Errorf("SPAS zero reply = %q", line)
	}
	cl.mu.Lock()
	cl.c.sendf("SPAS 9999")
	line, _ = cl.c.recv()
	cl.mu.Unlock()
	if !strings.HasPrefix(line, "501") {
		t.Errorf("SPAS 9999 reply = %q", line)
	}
}

func TestRetrWithoutModeE(t *testing.T) {
	srv, nw := newTestServer(t, map[string][]byte{"f": []byte("data")}, fastOpts(1))
	conn, err := nw.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := newCtrl(conn)
	c.expect("220")
	// Authenticate manually with the same parameters.
	opts := fastOpts(1)
	c.sendf("AUTH GSSAPI")
	c.expect("334")
	perRound := opts.HandshakeWork / opts.HandshakeRounds
	var prev []byte
	for round := 0; round < opts.HandshakeRounds; round++ {
		token := handshakeToken(prev, round, perRound)
		prev = token
		c.sendf("ADAT %s", encodeToken(token))
		if round == opts.HandshakeRounds-1 {
			if _, err := c.expect("235"); err != nil {
				t.Fatal(err)
			}
			break
		}
		line, err := c.expect("335")
		if err != nil {
			t.Fatal(err)
		}
		tok, _ := decodeToken(strings.TrimPrefix(strings.TrimPrefix(line, "335 "), "ADAT="))
		prev = tok
	}
	// RETR without SPAS/MODE E must be refused with 425.
	c.sendf("RETR f")
	line, _ := c.recv()
	if !strings.HasPrefix(line, "425") {
		t.Errorf("RETR without data setup reply = %q", line)
	}
}

func TestDialFailsAgainstClosedServer(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	if _, err := Dial(nw, "127.0.0.1:1", fastOpts(1)); err == nil {
		t.Error("Dial to dead address succeeded")
	}
}

func TestParseSize(t *testing.T) {
	if got := parseSize("150 Opening BINARY mode data connection (12345 bytes)"); got != 12345 {
		t.Errorf("parseSize = %d", got)
	}
	if got := parseSize("150 no size here"); got != -1 {
		t.Errorf("parseSize on malformed = %d", got)
	}
}
