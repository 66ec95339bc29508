package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"skyloft/internal/trace"
)

// Flags is the standard observability flag set shared by skyloft-trace
// and skyloft-bench (where it applies to the observed run):
// -trace-out, -metrics-out, -doctor-out, -occupancy, -causal-out, plus the
// live-telemetry trio -live-out, -live-window, -live-http and the flight
// recorder's -flight-dir. Bind before flag.Parse. Every *-out flag accepts
// "-" for stdout.
type Flags struct {
	TraceOut   string
	MetricsOut string
	DoctorOut  string
	Occupancy  bool

	// Live telemetry bus (internal/obs/live): NDJSON stream destination,
	// snapshot window width, HTTP endpoint address, and the flight
	// recorder's post-mortem bundle directory.
	LiveOut    string
	LiveWindow time.Duration
	LiveHTTP   string
	FlightDir  string

	// Causal request tracer (internal/obs/causal): exemplar document
	// destination for skyloft-explain.
	CausalOut string
}

// BindFlags registers the observability flags on the default CommandLine
// flag set.
func BindFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.TraceOut, "trace-out", "", "write a Perfetto/Chrome trace_event JSON file (\"-\" for stdout)")
	flag.StringVar(&f.MetricsOut, "metrics-out", "", "write a metrics-registry snapshot as JSON (\"-\" for stdout)")
	flag.StringVar(&f.DoctorOut, "doctor-out", "", "write the sched-doctor diagnosis as JSON (\"-\" for stdout)")
	flag.BoolVar(&f.Occupancy, "occupancy", false, "print the per-core occupancy profile")
	flag.StringVar(&f.LiveOut, "live-out", "", "stream live telemetry snapshots as NDJSON (\"-\" for stdout)")
	flag.DurationVar(&f.LiveWindow, "live-window", 0, "live snapshot window width in virtual time (default 1ms)")
	flag.StringVar(&f.LiveHTTP, "live-http", "", "serve live snapshots over HTTP on this address (e.g. 127.0.0.1:7077)")
	flag.StringVar(&f.FlightDir, "flight-dir", "", "flight recorder: dump a post-mortem bundle into this directory when a detector fires")
	flag.StringVar(&f.CausalOut, "causal-out", "", "write the causal tracer's exemplar document as JSON for skyloft-explain (\"-\" for stdout)")
	return f
}

// Active reports whether any observability output was requested.
func (f *Flags) Active() bool {
	return f.TraceOut != "" || f.MetricsOut != "" || f.DoctorOut != "" || f.Occupancy || f.LiveActive() || f.CausalActive()
}

// LiveActive reports whether the live telemetry bus should attach.
func (f *Flags) LiveActive() bool {
	return f.LiveOut != "" || f.LiveHTTP != "" || f.FlightDir != ""
}

// CausalActive reports whether the causal request tracer should attach.
func (f *Flags) CausalActive() bool { return f.CausalOut != "" }

// nopWriteCloser keeps stdout open when a *-out flag is "-": the emit
// helpers Close what they open, and closing os.Stdout would sabotage every
// later write to it.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// OpenOut opens an output destination: "-" means stdout (returned with a
// no-op Close), anything else is created as a file. Exported for the
// subpackages that honour the same convention (obs/live).
func OpenOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

// EmitTrace writes the event window as trace_event JSON to the -trace-out
// path (no-op when unset).
func (f *Flags) EmitTrace(events []trace.Event, cfg ExportConfig) error {
	if f.TraceOut == "" {
		return nil
	}
	out, err := OpenOut(f.TraceOut)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := WritePerfetto(out, events, cfg); err != nil {
		return err
	}
	if f.TraceOut != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d events) — open at https://ui.perfetto.dev\n",
			f.TraceOut, len(events))
	}
	return out.Close()
}

// JSONReport is anything that can serialise itself as JSON: the metrics
// *Registry, and the sched-doctor's and causal tracer's documents, accepted
// as an interface so obs does not import its own subpackages.
type JSONReport interface {
	WriteJSON(io.Writer) error
}

// emitJSON writes r as JSON to path (no-op when path is unset or r is nil).
func emitJSON(path string, r JSONReport) error {
	if path == "" || r == nil {
		return nil
	}
	out, err := OpenOut(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := r.WriteJSON(out); err != nil {
		return err
	}
	return out.Close()
}

// EmitMetrics writes the registry snapshot as JSON to the -metrics-out path
// (no-op when unset).
func (f *Flags) EmitMetrics(reg *Registry) error { return emitJSON(f.MetricsOut, reg) }

// EmitDoctor writes a doctor report as JSON to the -doctor-out path (no-op
// when unset or when r is nil).
func (f *Flags) EmitDoctor(r JSONReport) error { return emitJSON(f.DoctorOut, r) }

// EmitCausal writes a causal exemplar document as JSON to the -causal-out
// path (no-op when unset or when t is nil).
func (f *Flags) EmitCausal(t JSONReport) error { return emitJSON(f.CausalOut, t) }

// EmitOccupancy prints the occupancy report to w when -occupancy was given
// (no-op otherwise).
func (f *Flags) EmitOccupancy(w io.Writer, p *Profiler, appNames []string) error {
	if !f.Occupancy || p == nil {
		return nil
	}
	return p.WriteReport(w, appNames)
}
