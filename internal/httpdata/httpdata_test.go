package httpdata

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"

	"bxsoap/internal/dataset"
	"bxsoap/internal/netcdf"
	"bxsoap/internal/netsim"
)

func TestPublishAndDownload(t *testing.T) {
	root := t.TempDir()
	m := dataset.Generate(200)
	if err := m.NetCDF().WriteFile(filepath.Join(root, "sample.nc")); err != nil {
		t.Fatal(err)
	}

	nw := netsim.New(netsim.Profile{})
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, root)
	defer srv.Close()

	cl := NewClient(nw.Dial)
	defer cl.Close()
	local := filepath.Join(t.TempDir(), "fetched.nc")
	n, err := cl.Download(context.Background(), srv.URLFor("sample.nc"), local)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(local)
	if err != nil || st.Size() != n {
		t.Fatalf("downloaded %d bytes, file is %v/%v", n, st, err)
	}
	f, err := netcdf.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dataset.FromNetCDF(f)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("payload corrupted through the HTTP data channel")
	}
}

func TestDownloadMissingFile(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(mustListen(t), root)
	defer srv.Close()
	cl := NewClient(nil)
	defer cl.Close()
	if _, err := cl.Download(context.Background(), srv.URLFor("missing.nc"), filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("missing file download succeeded")
	}
}

func TestPathTraversalBlocked(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "ok.txt"), []byte("fine"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mustListen(t), root)
	defer srv.Close()
	cl := NewClient(nil)
	defer cl.Close()
	dst := filepath.Join(t.TempDir(), "out")
	if _, err := cl.Download(context.Background(), srv.URLFor("../../../etc/hostname"), dst); err == nil {
		t.Error("path traversal succeeded")
	}
}

func mustListen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}
