package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"

	"clustercast/internal/obs"
)

// promName mangles a registry metric name ("broadcast.batch_runs",
// "scale.dynamic25.heap_high_water") into a Prometheus-legal identifier
// under the module-wide clustercast_ prefix.
func promName(name string) string {
	mangled := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "clustercast_" + mangled
}

// writeMetrics renders the registry (plus process gauges and progress
// meters) in the Prometheus text exposition format.
func writeMetrics(w *bufio.Writer, reg *obs.Registry, start time.Time) {
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		n := promName(c.Name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range snap.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
	}
	now := time.Now()
	for _, p := range reg.ProgressSnapshot(now) {
		fmt.Fprintf(w, "clustercast_progress_done{task=%q} %d\n", p.Name, p.Done)
		fmt.Fprintf(w, "clustercast_progress_total{task=%q} %d\n", p.Name, p.Total)
		fmt.Fprintf(w, "clustercast_progress_rate{task=%q} %.3f\n", p.Name, p.Rate)
	}
	for _, s := range obs.StageSnapshot() {
		fmt.Fprintf(w, "clustercast_stage_wall_seconds{stage=%q} %.6f\n", s.Name, float64(s.WallNs)/1e9)
		fmt.Fprintf(w, "clustercast_stage_runs{stage=%q} %d\n", s.Name, s.Count)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# TYPE clustercast_heap_alloc_bytes gauge\nclustercast_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# TYPE clustercast_heap_inuse_bytes gauge\nclustercast_heap_inuse_bytes %d\n", ms.HeapInuse)
	fmt.Fprintf(w, "# TYPE clustercast_goroutines gauge\nclustercast_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# TYPE clustercast_uptime_seconds gauge\nclustercast_uptime_seconds %.3f\n", time.Since(start).Seconds())
}

// NewHandler builds the telemetry mux: /metrics (Prometheus text),
// /progress and /stages (JSON arrays), and the standard net/http/pprof
// endpoints under /debug/pprof/. reg nil selects obs.Default.
func NewHandler(reg *obs.Registry) http.Handler {
	if reg == nil {
		reg = obs.Default
	}
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		writeMetrics(bw, reg, start)
		bw.Flush()
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		views := reg.ProgressSnapshot(time.Now())
		if views == nil {
			views = []obs.ProgressView{}
		}
		json.NewEncoder(w).Encode(views)
	})
	mux.HandleFunc("/stages", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		stages := obs.StageSnapshot()
		if stages == nil {
			stages = []obs.StageStat{}
		}
		json.NewEncoder(w).Encode(stages)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve listens on addr (e.g. "127.0.0.1:9090", or ":0" for an ephemeral
// port) and serves the telemetry handler in a background goroutine.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: telemetry listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewHandler(reg)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the server's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }
