// Package harness wires the paper's §6 experiment apparatus: the unified
// schemes (SOAP over BXSA/TCP and over XML/HTTP, with the payload inside
// the message) and the separated schemes (a small SOAP control message
// pointing at a netCDF file served by the client over HTTP or GridFTP),
// all running over a netsim-shaped loopback network, plus the measurement
// and table/series printers that regenerate Table 1 and Figures 4-6.
package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
	"bxsoap/internal/gridftp"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/httpdata"
	"bxsoap/internal/netcdf"
	"bxsoap/internal/netsim"
	"bxsoap/internal/tcpbind"
)

// Scheme is one experimental configuration: Setup starts its servers on the
// shaped network, Invoke performs one full request-response for a model,
// and Teardown stops everything.
type Scheme interface {
	Name() string
	Setup(nw *netsim.Network, workdir string) error
	Invoke(m dataset.Model) (verified int, err error)
	Teardown() error
}

const sepNS = "urn:bxsoap:separated"

// verifyReply builds the verification-result envelope common to all
// schemes.
func verifyReply(verified, total int) *core.Envelope {
	res := bxdm.NewElement(bxdm.PName(dataset.Namespace, "lead", "result"))
	res.DeclareNamespace("lead", dataset.Namespace)
	res.Append(
		bxdm.NewLeaf(bxdm.Name(dataset.Namespace, "verified"), int32(verified)),
		bxdm.NewLeaf(bxdm.Name(dataset.Namespace, "total"), int32(total)),
	)
	return core.NewEnvelope(res)
}

func parseReply(resp *core.Envelope) (int, error) {
	body := resp.Body()
	if body == nil {
		return 0, fmt.Errorf("harness: empty response body")
	}
	el, ok := body.(*bxdm.Element)
	if !ok {
		return 0, fmt.Errorf("harness: unexpected response shape %v", body.Kind())
	}
	v := el.FirstChild(bxdm.Name(dataset.Namespace, "verified"))
	if v == nil {
		return 0, fmt.Errorf("harness: response missing verified count")
	}
	switch leaf := v.(type) {
	case *bxdm.LeafElement:
		return int(leaf.Value.Int64()), nil
	case *bxdm.Element:
		n, err := strconv.Atoi(leaf.TextContent())
		return n, err
	default:
		return 0, fmt.Errorf("harness: verified count has kind %v", v.Kind())
	}
}

// unifiedHandler verifies the in-message payload (scheme 1 in §6).
func unifiedHandler(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
	body := req.Body()
	if body == nil {
		return nil, &core.Fault{Code: core.FaultClient, String: "empty body"}
	}
	m, err := dataset.FromElement(body)
	if err != nil {
		return nil, &core.Fault{Code: core.FaultClient, String: err.Error()}
	}
	return verifyReply(m.Verify(), m.Size()), nil
}

// Unified is the paper's unified scheme: the binary data travels inside the
// SOAP message itself, encoded per the engine's encoding policy.
type Unified struct {
	// Encoding is "BXSA" or "XML"; Transport is "tcp" or "http".
	Encoding, Transport string

	name    string
	call    func(*core.Envelope) (*core.Envelope, error)
	closers []func() error
}

// NewUnified builds the unified scheme for an encoding/transport pair.
func NewUnified(encoding, transport string) *Unified {
	return &Unified{
		Encoding:  encoding,
		Transport: transport,
		name:      fmt.Sprintf("SOAP over %s/%s", encoding, transportLabel(transport)),
	}
}

func transportLabel(t string) string {
	if t == "tcp" {
		return "TCP"
	}
	return "HTTP"
}

// Name implements Scheme.
func (u *Unified) Name() string { return u.name }

// Setup implements Scheme. The generic engine is instantiated with the
// concrete policy types here — one monomorphic composition per
// (encoding, transport) pair, exactly the paper's compile-time binding.
func (u *Unified) Setup(nw *netsim.Network, _ string) error {
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	switch {
	case u.Encoding == "BXSA" && u.Transport == "tcp":
		srv := core.NewServer(core.BXSAEncoding{}, tcpbind.NewListener(l), unifiedHandler)
		go srv.Serve()
		eng := core.NewEngine(core.BXSAEncoding{}, tcpbind.New(nw.Dial, l.Addr().String()))
		u.call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
		u.closers = []func() error{eng.Close, srv.Close}
	case u.Encoding == "XML" && u.Transport == "http":
		hl := httpbind.NewListener(l)
		srv := core.NewServer(core.XMLEncoding{}, hl, unifiedHandler)
		go srv.Serve()
		eng := core.NewEngine(core.XMLEncoding{}, httpbind.New(nw.Dial, hl.URL()))
		u.call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
		u.closers = []func() error{eng.Close, srv.Close}
	case u.Encoding == "XML" && u.Transport == "tcp":
		srv := core.NewServer(core.XMLEncoding{}, tcpbind.NewListener(l), unifiedHandler)
		go srv.Serve()
		eng := core.NewEngine(core.XMLEncoding{}, tcpbind.New(nw.Dial, l.Addr().String()))
		u.call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
		u.closers = []func() error{eng.Close, srv.Close}
	case u.Encoding == "BXSA" && u.Transport == "http":
		hl := httpbind.NewListener(l)
		srv := core.NewServer(core.BXSAEncoding{}, hl, unifiedHandler)
		go srv.Serve()
		eng := core.NewEngine(core.BXSAEncoding{}, httpbind.New(nw.Dial, hl.URL()))
		u.call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
		u.closers = []func() error{eng.Close, srv.Close}
	default:
		l.Close()
		return fmt.Errorf("harness: unknown unified combination %s/%s", u.Encoding, u.Transport)
	}
	return nil
}

// Invoke implements Scheme.
func (u *Unified) Invoke(m dataset.Model) (int, error) {
	resp, err := u.call(core.NewEnvelope(m.Element()))
	if err != nil {
		return 0, err
	}
	return parseReply(resp)
}

// Teardown implements Scheme.
func (u *Unified) Teardown() error {
	var first error
	for _, c := range u.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	u.closers = nil
	return first
}

// SeparatedHTTP is the conventional scheme with an HTTP data channel: the
// client saves the model as netCDF, publishes it over HTTP, and sends a
// SOAP message carrying just the URL; the server pulls the file, reads and
// verifies it (§6 "Separated solution").
type SeparatedHTTP struct {
	clientDir string
	serverDir string
	files     *httpdata.Server
	call      func(*core.Envelope) (*core.Envelope, error)
	closers   []func() error
	seq       int
}

// NewSeparatedHTTP constructs the scheme.
func NewSeparatedHTTP() *SeparatedHTTP { return &SeparatedHTTP{} }

// Name implements Scheme.
func (s *SeparatedHTTP) Name() string { return "SOAP + HTTP" }

// Setup implements Scheme.
func (s *SeparatedHTTP) Setup(nw *netsim.Network, workdir string) error {
	s.clientDir = filepath.Join(workdir, "client-pub")
	s.serverDir = filepath.Join(workdir, "server-tmp")
	for _, d := range []string{s.clientDir, s.serverDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	// Client-side file server (the paper's Apache on the client machine).
	fl, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.files = httpdata.NewServer(fl, s.clientDir)

	// Server-side fetcher (libcurl).
	fetcher := httpdata.NewClient(nw.Dial)

	handler := func(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
		body := req.Body()
		if body == nil {
			return nil, &core.Fault{Code: core.FaultClient, String: "empty body"}
		}
		urlV, ok := body.Attr(bxdm.Name("", "url"))
		if !ok {
			return nil, &core.Fault{Code: core.FaultClient, String: "missing url"}
		}
		local := filepath.Join(s.serverDir, fmt.Sprintf("dl-%d.nc", time.Now().UnixNano()))
		if _, err := fetcher.Download(context.Background(), urlV.Text(), local); err != nil {
			return nil, &core.Fault{Code: core.FaultServer, String: err.Error()}
		}
		defer os.Remove(local)
		f, err := netcdf.ReadFile(local)
		if err != nil {
			return nil, &core.Fault{Code: core.FaultServer, String: err.Error()}
		}
		m, err := dataset.FromNetCDF(f)
		if err != nil {
			return nil, &core.Fault{Code: core.FaultServer, String: err.Error()}
		}
		return verifyReply(m.Verify(), m.Size()), nil
	}

	// Control channel: plain SOAP over XML/HTTP, like the paper.
	cl, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	hl := httpbind.NewListener(cl)
	srv := core.NewServer(core.XMLEncoding{}, hl, handler)
	go srv.Serve()
	eng := core.NewEngine(core.XMLEncoding{}, httpbind.New(nw.Dial, hl.URL()))
	s.call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
	s.closers = []func() error{eng.Close, srv.Close, s.files.Close, fetcher.Close}
	return nil
}

// Invoke implements Scheme: write netCDF + publish + SOAP round trip.
func (s *SeparatedHTTP) Invoke(m dataset.Model) (int, error) {
	s.seq++
	name := fmt.Sprintf("model-%d.nc", s.seq)
	path := filepath.Join(s.clientDir, name)
	if err := m.NetCDF().WriteFile(path); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	req := bxdm.NewElement(bxdm.PName(sepNS, "sep", "fetch"))
	req.DeclareNamespace("sep", sepNS)
	req.SetAttr(bxdm.LocalName("url"), bxdm.StringValue(s.files.URLFor(name)))
	resp, err := s.call(core.NewEnvelope(req))
	if err != nil {
		return 0, err
	}
	return parseReply(resp)
}

// Teardown implements Scheme.
func (s *SeparatedHTTP) Teardown() error {
	var first error
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// SeparatedGridFTP is the separated scheme with a GridFTP data channel and
// a configurable number of parallel TCP streams (§6; Figures 5 and 6 sweep
// 1, 4 and 16 streams).
type SeparatedGridFTP struct {
	Streams int
	// Opts overrides the simulated GridFTP parameters (zero = defaults).
	Opts gridftp.Options

	nw        *netsim.Network
	clientDir string
	serverDir string
	ftp       *gridftp.Server
	call      func(*core.Envelope) (*core.Envelope, error)
	closers   []func() error
	seq       int
}

// NewSeparatedGridFTP constructs the scheme with n parallel streams.
func NewSeparatedGridFTP(n int) *SeparatedGridFTP { return &SeparatedGridFTP{Streams: n} }

// Name implements Scheme.
func (s *SeparatedGridFTP) Name() string {
	plural := "streams"
	if s.Streams == 1 {
		plural = "stream"
	}
	return fmt.Sprintf("SOAP + GridFTP (%d %s)", s.Streams, plural)
}

// Setup implements Scheme.
func (s *SeparatedGridFTP) Setup(nw *netsim.Network, workdir string) error {
	s.nw = nw
	s.clientDir = filepath.Join(workdir, "gftp-pub")
	s.serverDir = filepath.Join(workdir, "gftp-tmp")
	for _, d := range []string{s.clientDir, s.serverDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	opts := s.Opts
	opts.Streams = s.Streams
	opts = optsWithDefaults(opts)

	// GridFTP server on the client machine (paper: "the machine running the
	// client program hosts GT4 GridFTP server").
	ftp, err := gridftp.NewServer(nw, s.clientDir, opts)
	if err != nil {
		return err
	}
	s.ftp = ftp

	handler := func(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
		body := req.Body()
		if body == nil {
			return nil, &core.Fault{Code: core.FaultClient, String: "empty body"}
		}
		addrV, ok1 := body.Attr(bxdm.Name("", "addr"))
		pathV, ok2 := body.Attr(bxdm.Name("", "path"))
		if !ok1 || !ok2 {
			return nil, &core.Fault{Code: core.FaultClient, String: "missing addr/path"}
		}
		// A fresh session per request: authentication is part of every
		// transfer's cost, as in the paper's measurements.
		cl, err := gridftp.Dial(nw, addrV.Text(), opts)
		if err != nil {
			return nil, &core.Fault{Code: core.FaultServer, String: err.Error()}
		}
		defer cl.Quit()
		local := filepath.Join(s.serverDir, fmt.Sprintf("dl-%d.nc", time.Now().UnixNano()))
		if _, err := cl.Retrieve(pathV.Text(), local); err != nil {
			return nil, &core.Fault{Code: core.FaultServer, String: err.Error()}
		}
		defer os.Remove(local)
		f, err := netcdf.ReadFile(local)
		if err != nil {
			return nil, &core.Fault{Code: core.FaultServer, String: err.Error()}
		}
		m, err := dataset.FromNetCDF(f)
		if err != nil {
			return nil, &core.Fault{Code: core.FaultServer, String: err.Error()}
		}
		return verifyReply(m.Verify(), m.Size()), nil
	}

	cl, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		ftp.Close()
		return err
	}
	hl := httpbind.NewListener(cl)
	srv := core.NewServer(core.XMLEncoding{}, hl, handler)
	go srv.Serve()
	eng := core.NewEngine(core.XMLEncoding{}, httpbind.New(nw.Dial, hl.URL()))
	s.call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
	s.closers = []func() error{eng.Close, srv.Close, ftp.Close}
	return nil
}

func optsWithDefaults(o gridftp.Options) gridftp.Options {
	if o.Streams <= 0 {
		o.Streams = 1
	}
	return o
}

// Invoke implements Scheme.
func (s *SeparatedGridFTP) Invoke(m dataset.Model) (int, error) {
	s.seq++
	name := fmt.Sprintf("model-%d.nc", s.seq)
	path := filepath.Join(s.clientDir, name)
	if err := m.NetCDF().WriteFile(path); err != nil {
		return 0, err
	}
	defer os.Remove(path)
	req := bxdm.NewElement(bxdm.PName(sepNS, "sep", "fetch"))
	req.DeclareNamespace("sep", sepNS)
	req.SetAttr(bxdm.LocalName("addr"), bxdm.StringValue(s.ftp.Addr()))
	req.SetAttr(bxdm.LocalName("path"), bxdm.StringValue(name))
	resp, err := s.call(core.NewEnvelope(req))
	if err != nil {
		return 0, err
	}
	return parseReply(resp)
}

// Teardown implements Scheme.
func (s *SeparatedGridFTP) Teardown() error {
	var first error
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}
