package harness

import (
	"bytes"
	"strings"
	"testing"

	"bxsoap/internal/dataset"
	"bxsoap/internal/gridftp"
	"bxsoap/internal/netsim"
)

// fastGridFTP keeps the simulated handshake cheap in unit tests.
var fastGridFTP = gridftp.Options{HandshakeWork: 256, HandshakeRounds: 2}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]SizeRow{}
	for _, r := range rows {
		byName[r.Format] = r
	}
	native := byName["Native representation"]
	if native.Bytes != 12000 || native.Overhead != 0 {
		t.Errorf("native = %+v", native)
	}
	// Table 1: BXSA ~1.3%, netCDF ~2.2%, XML ~99% overhead. Check the
	// shape: binary formats in single digits, XML around doubling.
	if o := byName["BXSA"].Overhead; o <= 0 || o > 0.05 {
		t.Errorf("BXSA overhead = %.1f%%, want ~1%%", o*100)
	}
	if o := byName["netCDF"].Overhead; o <= 0 || o > 0.05 {
		t.Errorf("netCDF overhead = %.1f%%, want ~2%%", o*100)
	}
	if o := byName["XML 1.0"].Overhead; o < 0.6 || o > 1.6 {
		t.Errorf("XML overhead = %.1f%%, want ~99%%", o*100)
	}
	// Ordering: BXSA < netCDF < XML, as in the paper.
	if !(byName["BXSA"].Bytes < byName["netCDF"].Bytes && byName["netCDF"].Bytes < byName["XML 1.0"].Bytes) {
		t.Errorf("size ordering wrong: %+v", rows)
	}
}

func TestPrintTable1(t *testing.T) {
	rows, err := Table1(10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Format", "BXSA", "netCDF", "XML 1.0", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUnifiedSchemesEndToEnd(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	for _, s := range []Scheme{
		NewUnified("BXSA", "tcp"),
		NewUnified("XML", "http"),
		NewUnified("XML", "tcp"),
		NewUnified("BXSA", "http"),
	} {
		if err := s.Setup(nw, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		m := dataset.Generate(123)
		got, err := s.Invoke(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got != 123 {
			t.Errorf("%s: verified = %d", s.Name(), got)
		}
		if err := s.Teardown(); err != nil {
			t.Errorf("%s: teardown: %v", s.Name(), err)
		}
	}
}

func TestSeparatedHTTPSchemeEndToEnd(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	s := NewSeparatedHTTP()
	if err := s.Setup(nw, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer s.Teardown()
	m := dataset.Generate(321)
	got, err := s.Invoke(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != 321 {
		t.Errorf("verified = %d", got)
	}
	// Second invocation works (fresh file name).
	if got, err = s.Invoke(dataset.Generate(10)); err != nil || got != 10 {
		t.Errorf("second invoke = %d, %v", got, err)
	}
}

func TestSeparatedGridFTPSchemeEndToEnd(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	s := NewSeparatedGridFTP(4)
	s.Opts = fastGridFTP
	if err := s.Setup(nw, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer s.Teardown()
	got, err := s.Invoke(dataset.Generate(777))
	if err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Errorf("verified = %d", got)
	}
}

func TestSweepProducesSeries(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	gftp := NewSeparatedGridFTP(1)
	gftp.Opts = fastGridFTP
	schemes := []Scheme{NewUnified("BXSA", "tcp"), gftp}
	series, err := Sweep(schemes, SweepConfig{
		Network: nw,
		Sizes:   []int{0, 50, 200},
		Iters:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: points = %d", s.Scheme, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Err != nil {
				t.Errorf("%s n=%d: %v", s.Scheme, p.ModelSize, p.Err)
			}
			if p.ModelSize > 0 && p.Response <= 0 {
				t.Errorf("%s n=%d: response = %v", s.Scheme, p.ModelSize, p.Response)
			}
		}
	}

	var buf bytes.Buffer
	PrintResponseSeries(&buf, series)
	if !strings.Contains(buf.String(), "SOAP over BXSA/TCP") || !strings.Contains(buf.String(), "200") {
		t.Errorf("response table malformed:\n%s", buf.String())
	}
	buf.Reset()
	PrintBandwidthSeries(&buf, series)
	if !strings.Contains(buf.String(), "pairs/s") {
		t.Errorf("bandwidth table malformed:\n%s", buf.String())
	}
}

func TestSweepMaxSizeFor(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	schemes := []Scheme{NewUnified("XML", "http")}
	series, err := Sweep(schemes, SweepConfig{
		Network:    nw,
		Sizes:      []int{10, 100000},
		Iters:      1,
		MaxSizeFor: map[string]int{"SOAP over XML/HTTP": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series[0].Points) != 1 {
		t.Errorf("cap ignored: %d points", len(series[0].Points))
	}
}

func TestBXSAFasterThanXMLUnified(t *testing.T) {
	// The headline claim at moderate size on an unshaped network: the
	// conversion cost alone should make XML several times slower.
	nw := netsim.New(netsim.Profile{})
	series, err := Sweep(
		[]Scheme{NewUnified("BXSA", "tcp"), NewUnified("XML", "http")},
		SweepConfig{Network: nw, Sizes: []int{50000}, Iters: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	bx := series[0].Points[0].Response
	xml := series[1].Points[0].Response
	if bx <= 0 || xml <= 0 {
		t.Fatalf("bad measurements: %v, %v", bx, xml)
	}
	if xml < bx*2 {
		t.Errorf("XML (%v) not clearly slower than BXSA (%v) at 50k pairs", xml, bx)
	}
}

func TestFigureSchemeSetsConstructible(t *testing.T) {
	if len(Figure4Schemes()) != 4 {
		t.Error("Figure 4 wants 4 schemes")
	}
	if len(Figure5Schemes()) != 6 {
		t.Error("Figure 5 wants 6 schemes")
	}
	if len(Figure6Schemes()) != 5 {
		t.Error("Figure 6 wants 5 schemes")
	}
	if len(Figure5Sizes) != 7 || Figure5Sizes[0] != 1365 || Figure5Sizes[6] != 5591040 {
		t.Error("Figure 5 sizes wrong")
	}
}
