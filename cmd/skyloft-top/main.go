// Command skyloft-top is the terminal dashboard for the live telemetry bus:
// a curses-free, ANSI-escape view of the simulated machine while it runs —
// per-window throughput and wakeup percentiles, per-app latency, per-core
// occupancy bars, and any live pathology findings.
//
// It consumes either surface the bus exports:
//
//	-http ADDR   poll http://ADDR/snapshot (a -live-http serving run)
//	-in FILE     tail an NDJSON stream ("-" = stdin, e.g. piped -live-out -)
//
// One of the two is required. -refresh sets the poll/redraw cadence, -once
// renders a single frame without clearing the screen and exits (useful in
// scripts and tests).
//
// Usage:
//
//	skyloft-trace -dur 200ms -live-http 127.0.0.1:7077 &
//	skyloft-top -http 127.0.0.1:7077
//
//	skyloft-trace -live-out - | skyloft-top -in -
//
// skyloft-top is host-side tooling: it never touches the simulation, so its
// wall-clock use is confined to the poll loop and explicitly sanctioned.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"skyloft/internal/obs/live"
	"skyloft/internal/simtime"
)

const clearScreen = "\x1b[H\x1b[2J"

func main() {
	httpAddr := flag.String("http", "", "poll a -live-http server at this address")
	in := flag.String("in", "", "tail a -live-out NDJSON stream from this file (\"-\" = stdin)")
	refresh := flag.Duration("refresh", 500*time.Millisecond, "poll / redraw cadence")
	once := flag.Bool("once", false, "render one frame and exit (no screen clearing)")
	flag.Parse()

	switch {
	case *httpAddr != "" && *in != "":
		fmt.Fprintln(os.Stderr, "skyloft-top: -http and -in are mutually exclusive")
		os.Exit(2)
	case *httpAddr != "":
		pollHTTP(*httpAddr, *refresh, *once)
	case *in != "":
		tailNDJSON(*in, *once)
	default:
		fmt.Fprintln(os.Stderr, "skyloft-top: need -http ADDR or -in FILE (see -help)")
		os.Exit(2)
	}
}

// pollHTTP polls /snapshot until the server goes away. Wall-clock pacing is
// the point of a live dashboard, so the loop's sleep is sanctioned.
//
//simlint:allow wallclock host-side dashboard poll loop; never touches sim state
func pollHTTP(addr string, refresh time.Duration, once bool) {
	client := &http.Client{Timeout: 5 * time.Second}
	url := "http://" + addr + "/snapshot"
	lastSeq := -1
	rendered := false
	for {
		snap, ok, err := fetchSnapshot(client, url)
		switch {
		case err != nil:
			if rendered {
				// The serving run ended; the last frame stays on screen.
				fmt.Printf("skyloft-top: %s gone (%v)\n", addr, err)
				return
			}
			fmt.Fprintf(os.Stderr, "skyloft-top: %v\n", err)
			os.Exit(1)
		case ok && snap.Seq != lastSeq:
			lastSeq = snap.Seq
			rendered = true
			frame := render(&snap)
			if once {
				fmt.Print(frame)
				return
			}
			fmt.Print(clearScreen + frame)
		}
		time.Sleep(refresh)
	}
}

// fetchSnapshot GETs one snapshot; ok=false on 404 (none published yet).
func fetchSnapshot(client *http.Client, url string) (live.Snapshot, bool, error) {
	var snap live.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return snap, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return snap, false, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, false, fmt.Errorf("decoding snapshot: %v", err)
	}
	return snap, true, nil
}

// tailNDJSON renders each snapshot line as it arrives (a pipe paces the
// stream naturally); with -once it renders only the final snapshot.
func tailNDJSON(path string, once bool) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyloft-top: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var last string
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var snap live.Snapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			fmt.Fprintf(os.Stderr, "skyloft-top: bad snapshot line: %v\n", err)
			os.Exit(1)
		}
		n++
		last = render(&snap)
		if !once {
			fmt.Print(clearScreen + last)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "skyloft-top: %v\n", err)
		os.Exit(1)
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "skyloft-top: no snapshots in stream")
		os.Exit(1)
	}
	if once {
		fmt.Print(last)
	}
}

// render formats one snapshot as a full dashboard frame.
func render(s *live.Snapshot) string {
	var b strings.Builder
	w := s.Window

	tag := ""
	if s.Partial {
		tag = "  (partial)"
	}
	fmt.Fprintf(&b, "skyloft-top — window #%d  [%v … %v)%s\n",
		s.Seq, dur(simtime.Duration(w.Start)), dur(simtime.Duration(w.End)), tag)
	fmt.Fprintf(&b, "events %d   spans %d   throughput %.0f rps   runq hw %d\n",
		s.TotalEvents, s.TotalSpans, w.ThroughputRPS, w.RunqHighWater)
	fmt.Fprintf(&b, "wake p50 %v  p99 %v  (%d samples)   disp %d  wake %d  preempt %d  steal %d  inject %d\n",
		dur(w.WakeP50), dur(w.WakeP99), w.WakeSamples,
		w.Dispatches, w.Wakes, w.Preempts, w.Steals, w.Injects)
	if w.LeaseGrants+w.LeaseRevokes+w.LeaseReturns > 0 {
		// Oversubscription runs only: watch the lease protocol work, and
		// forced revocation engage, window by window.
		fmt.Fprintf(&b, "leases: grant %d  forced-revoke %d  return %d\n",
			w.LeaseGrants, w.LeaseRevokes, w.LeaseReturns)
	}
	b.WriteByte('\n')

	if len(s.Apps) > 0 {
		fmt.Fprintf(&b, "%-4s %-10s %9s %10s %10s %10s %10s\n",
			"app", "name", "completed", "wake p50", "wake p99", "wake max", "run")
		for _, a := range s.Apps {
			fmt.Fprintf(&b, "%-4d %-10s %9d %10v %10v %10v %10v\n",
				a.App, a.Name, a.Completed, dur(a.WakeP50), dur(a.WakeP99), dur(a.WakeMax), dur(a.Run))
		}
		b.WriteByte('\n')
	}

	if len(s.Occupancy) > 0 {
		b.WriteString("cores:\n")
		for _, c := range s.Occupancy {
			fmt.Fprintf(&b, "  cpu%-3d %s %5.1f%% busy (kernel %.1f%%)\n",
				c.CPU, bar(c.Busy(), 20), 100*c.Busy(), 100*c.Kernel)
		}
		b.WriteByte('\n')
	}

	if len(s.Findings) > 0 {
		b.WriteString("findings:\n")
		for _, f := range s.Findings {
			fmt.Fprintf(&b, "  !! %s app=%d ×%d: %s\n", f.Code, f.App, f.Count, f.Evidence)
		}
		b.WriteByte('\n')
	}

	if len(s.Metrics) > 0 {
		moved := make([]live.MetricDelta, 0, len(s.Metrics))
		for _, m := range s.Metrics {
			if m.Delta != 0 {
				moved = append(moved, m)
			}
		}
		sort.Slice(moved, func(i, j int) bool {
			di, dj := abs(moved[i].Delta), abs(moved[j].Delta)
			if di != dj {
				return di > dj
			}
			return moved[i].Name < moved[j].Name
		})
		if len(moved) > 8 {
			moved = moved[:8]
		}
		if len(moved) > 0 {
			b.WriteString("hottest metrics this window:\n")
			for _, m := range moved {
				fmt.Fprintf(&b, "  %-28s %12.0f  (+%.0f)\n", m.Name, m.Value, m.Delta)
			}
		}
	}
	return b.String()
}

// dur renders a virtual duration with time.Duration's humane formatting
// (both are nanosecond counts; the conversion never reads the clock).
func dur(d simtime.Duration) time.Duration { return time.Duration(d) }

func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", width-n) + "]"
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
