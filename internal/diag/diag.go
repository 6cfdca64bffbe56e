// Package diag exposes live introspection for long sweeps: an HTTP
// endpoint serving expvar (/debug/vars, including a "harness" variable
// with the pool's live counters) and pprof (/debug/pprof/). Commands
// attach it behind a -debug-addr flag; it is purely observational and
// never alters results.
package diag

import (
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"dapper/internal/harness"
)

var (
	pubMu sync.Mutex
	// statsHolder carries the currently-registered pool stats function.
	// expvar names are process-global and panic on duplicates, so the
	// "harness" variable is published once and reads through this
	// holder — repeated Serve calls (tests) swap the holder instead of
	// re-publishing.
	statsHolder atomic.Value // of func() harness.Stats
)

// registerStats publishes (or re-targets) the "harness" expvar to the
// given pool-stats function. Inflight is a live gauge, so watching
// /debug/vars shows sweep progress without touching the output files.
func registerStats(stats func() harness.Stats) {
	statsHolder.Store(stats)
	publish("harness", func() any { return statsHolder.Load().(func() harness.Stats)() })
}

// publish registers an expvar.Func under name, replacing nothing:
// expvar panics on duplicate names, so repeated registrations (tests)
// reuse the first.
func publish(name string, f expvar.Func) {
	pubMu.Lock()
	defer pubMu.Unlock()
	if expvar.Get(name) == nil {
		expvar.Publish(name, f)
	}
}

// newMux returns the debug mux: expvar under /debug/vars and the pprof
// family under /debug/pprof/.
func newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running debug endpoint with a shutdown path: callers
// release the socket instead of abandoning it to process exit.
type Server struct {
	srv *http.Server
	// ln is closed directly on Close: http.Server only learns
	// about the listener once Serve runs, so an immediate Close could
	// otherwise race the goroutine and leak the socket.
	ln   net.Listener
	addr string
}

// Serve starts the debug endpoint on addr (e.g. "localhost:6060").
// addr may use port 0; Addr reports what was bound. stats is polled on
// every /debug/vars request and published as the "harness" expvar. The
// server runs until Close.
func Serve(addr string, stats func() harness.Stats) (*Server, error) {
	registerStats(stats)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diag: listen %s: %w", addr, err)
	}
	s := &Server{
		srv:  &http.Server{Handler: newMux()},
		ln:   ln,
		addr: ln.Addr().String(),
	}
	go s.srv.Serve(ln) //nolint:errcheck // best-effort debug endpoint
	return s, nil
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string { return s.addr }

// Close immediately closes the listener and all active connections.
func (s *Server) Close() error {
	err := s.srv.Close()
	if cerr := s.ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) && err == nil {
		err = cerr
	}
	return err
}
