// Command azurestore serves the Azure storage emulator over HTTP (the
// reproduction's Azurite): blob, queue and table services on one listener
// under /blob, /queue and /table. With -throttle it enforces the
// documented scalability targets (500 ops/s per queue and table
// partition, 5 000 ops/s per account) by answering 503 ServerBusy, so
// clients can exercise the paper's back-off-and-retry discipline against
// real sockets.
//
// The emulator always serves per-endpoint request counters and latency
// histograms at /metricsz (Prometheus text); with -debug it additionally
// mounts the pprof profiles under /debug/pprof/. SIGINT or SIGTERM stops
// it gracefully: in-flight requests get shutdownGrace to finish and the
// process exits 0.
//
//	azurestore -addr 127.0.0.1:10000 -throttle -debug
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"azurebench/internal/rest"
)

// Connection hygiene for a long-running emulator: a client that stalls
// mid-header or goes idle cannot pin a connection forever. Bodies get no
// deadline — a 64 MB blob upload over a slow link is legitimate.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

func main() {
	addr := flag.String("addr", "127.0.0.1:10000", "listen address")
	throttle := flag.Bool("throttle", false, "enforce scalability-target throttling")
	debug := flag.Bool("debug", false, "expose the pprof profiles under /debug/pprof/")
	flag.Parse()

	srv := rest.NewServer(rest.Options{Throttle: *throttle})
	var handler http.Handler = srv
	if *debug {
		handler = withDebug(srv)
	}
	fmt.Printf("azurestore: serving blob/queue/table storage on http://%s (throttle=%v debug=%v)\n", *addr, *throttle, *debug)
	fmt.Println("  blob:  PUT/GET  /blob/{container}/{blob}")
	fmt.Println("  queue: POST/GET /queue/{name}/messages")
	fmt.Println("  table: POST/GET /table/{name}")
	fmt.Println("  stats: GET      /metricsz")
	if *debug {
		fmt.Println("  debug: GET      /debug/pprof/")
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		drained <- hs.Shutdown(grace)
	}()
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if err := <-drained; err != nil {
		log.Fatalf("azurestore: shutdown: %v", err)
	}
	fmt.Println("azurestore: drained, bye")
}

// withDebug mounts the pprof debug routes in front of the emulator.
func withDebug(srv *rest.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", srv)
	return mux
}
