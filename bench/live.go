package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"azurebench/internal/rest"
	"azurebench/internal/sdk"
)

// liveStack is the live path of one set-up: the emulator in-process on a
// loopback port, behind the handler cmd/azurestore mounts, and one SDK
// client per closed-loop worker sharing a dedicated keep-alive transport.
type liveStack struct {
	srv       *rest.Server
	http      *http.Server
	served    chan struct{}
	transport *http.Transport
	sdk       []*sdk.Client
	bufs      []*spanBuf // nil when the run is not traced
	clk       clock
}

// startLive boots the stack. spanCap sizes each worker's span buffer for
// one repetition of a traced run.
func startLive(tr *tracer, spanCap int) (*liveStack, error) {
	ls := &liveStack{
		// Throttling off: a 503 costs the SDK a one-second sleep, which
		// would be the benchmark's own doing, not the system's.
		srv:    rest.NewServer(rest.Options{Throttle: false}),
		served: make(chan struct{}),
		clk:    tr.clk,
	}
	var handler http.Handler = ls.srv
	if tr.on {
		tr.bufs = nil
		for w := 0; w < clients; w++ {
			tr.bufs = append(tr.bufs, newSpanBuf(tr.clk, w, spanCap))
		}
		ls.bufs = tr.bufs
		handler = &tracedHandler{next: ls.srv, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls.http = &http.Server{Handler: handler}
	go func() {
		defer close(ls.served)
		_ = ls.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	ls.transport = &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	base := "http://" + ln.Addr().String()
	for w := 0; w < clients; w++ {
		var rt http.RoundTripper = ls.transport
		if tr.on {
			rt = &tracedTransport{next: ls.transport, buf: ls.bufs[w]}
		}
		ls.sdk = append(ls.sdk, sdk.New(base, &http.Client{Transport: rt}, sdk.DefaultRetryPolicy()))
	}
	return ls, nil
}

// buf is the span buffer worker records into in a traced repetition, nil
// in an untraced one.
func (ls *liveStack) buf(worker int, traced bool) *spanBuf {
	if !traced {
		return nil
	}
	return ls.bufs[worker]
}

// stop shuts the server down and waits for its goroutine.
func (ls *liveStack) stop() {
	ls.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ls.http.Shutdown(ctx); err != nil {
		_ = ls.http.Close()
	}
	<-ls.served
}

// retries is how many requests the SDK clients retried.
func (ls *liveStack) retries() int64 {
	var n int64
	for _, c := range ls.sdk {
		r, _ := c.RetryStats()
		n += r
	}
	return n
}

// serverErrors is how many responses the emulator counts with status 400
// or above, from its own endpoint statistics.
func (ls *liveStack) serverErrors() uint64 {
	var n uint64
	for _, es := range ls.srv.MetricsSnapshot() {
		n += es.Errors
	}
	return n
}

// phase runs fn once per closed-loop client, all released together, and
// returns the wall time from release until the last one returns.
func (ls *liveStack) phase(fn func(worker int)) time.Duration {
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < clients; w++ {
		ready.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			ready.Done()
			<-start
			fn(w)
		}(w)
	}
	ready.Wait()
	t0 := ls.clk.now()
	close(start)
	done.Wait()
	return time.Duration(ls.clk.now() - t0)
}

// split gives worker its contiguous share [lo, hi) of n items.
func split(n, worker int) (lo, hi int) {
	return n * worker / clients, n * (worker + 1) / clients
}
