// Package httpdata implements the HTTP data channel of the paper's
// "separated" scheme (§6): the client saves the binary payload as a netCDF
// file, publishes it over HTTP, sends the URL in an ordinary SOAP message,
// and the server pulls the file with an HTTP GET — the role Apache httpd
// and libcurl play in the paper's testbed.
package httpdata

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Server publishes files from a root directory over HTTP.
type Server struct {
	root string
	l    net.Listener
	srv  *http.Server
	done chan struct{}
	once sync.Once
}

// NewServer serves files under root on the given (possibly netsim-shaped)
// listener.
func NewServer(l net.Listener, root string) *Server {
	s := &Server{root: root, l: l, done: make(chan struct{})}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go func() {
		s.srv.Serve(l)
		s.once.Do(func() { close(s.done) })
	}()
	return s
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	name := path.Clean(strings.TrimPrefix(r.URL.Path, "/"))
	if name == "" || strings.HasPrefix(name, "..") || strings.Contains(name, "/../") {
		http.Error(w, "bad path", http.StatusBadRequest)
		return
	}
	f, err := os.Open(filepath.Join(s.root, filepath.FromSlash(name)))
	if err != nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.IsDir() {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-netcdf")
	w.Header().Set("Content-Length", fmt.Sprint(st.Size()))
	io.Copy(w, f)
}

// URLFor returns the URL at which a file published under the server root is
// reachable.
func (s *Server) URLFor(name string) string {
	return "http://" + s.l.Addr().String() + "/" + name
}

// Addr returns the server's bound address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close stops the server.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.done) })
	return s.srv.Close()
}

// Client downloads files (the libcurl role).
type Client struct {
	hc *http.Client
}

// Dialer opens the underlying transport connection.
type Dialer func(addr string) (net.Conn, error)

// NewClient builds a download client dialing through dial (nil = plain
// TCP).
func NewClient(dial Dialer) *Client {
	tr := &http.Transport{
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     time.Minute,
	}
	if dial != nil {
		tr.DialContext = func(_ context.Context, _, addr string) (net.Conn, error) {
			return dial(addr)
		}
	}
	return &Client{hc: &http.Client{Transport: tr}}
}

// Download fetches url into localPath. The body is streamed straight to
// disk: the separated scheme's receiver must materialize the file before
// the netCDF reader can open it (the library "does not support reading the
// data directly from memory").
func (c *Client) Download(ctx context.Context, url, localPath string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("httpdata: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("httpdata: GET %s: %s", url, resp.Status)
	}
	out, err := os.Create(localPath)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, resp.Body)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// Close releases idle connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
