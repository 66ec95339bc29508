package live

import (
	"fmt"
	"io"

	"skyloft/internal/obs"
	"skyloft/internal/simtime"
)

// Session bundles a flag-configured bus with its output plumbing: the
// NDJSON writer, the optional HTTP server and the optional flight recorder.
// Close tears all of it down in order.
type Session struct {
	Bus    *Bus
	Server *Server
	out    io.WriteCloser
}

// FromFlags attaches a bus configured from the shared obs flag set, merged
// over base (flag values win where set): -live-out opens the NDJSON stream,
// -live-window overrides the snapshot width, -flight-dir arms the flight
// recorder, and -live-http starts the endpoint. Returns (nil, nil) when no
// live flag was given.
func FromFlags(of *obs.Flags, base Config, src Source) (*Session, error) {
	if of == nil || !of.LiveActive() {
		return nil, nil
	}
	cfg := base
	if of.LiveWindow > 0 {
		cfg.Window = simtime.Duration(of.LiveWindow.Nanoseconds())
	}
	if of.FlightDir != "" {
		if cfg.Recorder == nil {
			cfg.Recorder = &Recorder{}
		}
		cfg.Recorder.Dir = of.FlightDir
	}
	s := &Session{}
	if of.LiveOut != "" {
		out, err := obs.OpenOut(of.LiveOut)
		if err != nil {
			return nil, err
		}
		s.out = out
		cfg.Out = out
	}
	s.Bus = Attach(cfg, src)
	if of.LiveHTTP != "" {
		srv, err := s.Bus.Serve(of.LiveHTTP)
		if err != nil {
			s.Bus.Close()
			if s.out != nil {
				s.out.Close()
			}
			return nil, err
		}
		s.Server = srv
	}
	return s, nil
}

// Close flushes the final window, stops the publisher and the HTTP server,
// and closes the output file. Safe on a nil session.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	err := s.Bus.Close()
	if s.Server != nil {
		if serr := s.Server.Close(); err == nil {
			err = serr
		}
	}
	if s.out != nil {
		if cerr := s.out.Close(); err == nil {
			err = cerr
		}
	}
	if rec := s.Bus.Recorder(); rec != nil && err == nil {
		err = rec.Err()
	}
	return err
}

// Summary is the one-line run footer the cmds print: window count, the
// deterministic stream hash, and flight-recorder activity.
func (s *Session) Summary() string {
	if s == nil {
		return ""
	}
	line := fmt.Sprintf("live: %d windows, stream %016x", s.Bus.Windows(), s.Bus.StreamHash())
	if rec := s.Bus.Recorder(); rec != nil {
		line += fmt.Sprintf(", flight triggers %d dumps %d", rec.Triggers(), rec.Dumps())
	}
	return line
}
