// Command pfserve runs the partial-fault analysis service: a
// long-running HTTP JSON API over the paper's pipeline — Table 1
// inventories, march coverage matrices, two-cell certificates, the
// static detection matrix and the net-merge prover — with singleflight
// de-duplication of concurrent identical requests and an optional
// disk-persistent content-addressed result store.
//
// Usage:
//
//	pfserve -addr :8080 -store /var/lib/pfserve
//	pfserve -addr 127.0.0.1:0 -parallel 4
//
// SIGINT or SIGTERM drains the requests in progress and the computations
// in flight (each wait bounded by -drain), closes the outcome journal
// and exits 0.
//
// Endpoints (POST JSON unless noted):
//
//	GET  /v1/healthz    liveness
//	GET  /v1/metrics    request/cache/singleflight/traced-sweep counters
//	POST /v1/inventory  {"engine":"behav|spice","sweep":"dense|traced","opens":[..],"rdefs":[..],"us":[..]}
//	POST /v1/coverage   {"tests":[..],"catalog":"classical|paper","engine":"memsim|bitsim"}
//	POST /v1/twocell    {"test":"MATS+","offsets":[1,-1],"rows":4,"cols":4}
//	POST /v1/matrix     {"tests":[..]}
//	POST /v1/predict    {"open":4} or {"defects":[{"site":"bridge.bl.bl","ohms":2e6}]}
//	POST /v1/stress     {"corners":"low-vdd;hot","opens":[..],"rdefs":[..],"us":[..]}
//	POST /v1/batch      {"requests":[{"kind":"matrix","body":{..}},..]}
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/memtest/partialfaults/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(os.Args[1:], os.Stdout, os.Stderr, nil, ctx.Done())
	stop()
	os.Exit(code)
}

// run builds the server and serves until the listener fails or stop is
// closed. When ready is non-nil it receives the bound address once the
// listener is up — tests pass ":0" and read the real port from it.
//
// Closing stop (main closes it on SIGINT or SIGTERM) shuts down
// gracefully: the listener closes, requests in progress get up to the
// -drain bound to finish (then their connections are closed), the
// computations still in flight are waited for, again up to -drain, and
// only then is the outcome journal closed. run then returns 0, or 1 if
// a computation outlived the second bound.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("pfserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		storeDir = fs.String("store", "", "persistent result-store directory (empty = in-memory only)")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		drain    = fs.Duration("drain", 30*time.Second, "bound on each shutdown wait: requests in progress, then computations in flight")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	srv, err := service.New(service.Config{StoreDir: *storeDir, Parallelism: *parallel})
	if err != nil {
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "pfserve listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		srv.Close()
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	case <-stop:
	}

	fmt.Fprintln(stdout, "pfserve shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		// Closing the connections cancels their requests, and with them
		// every computation that only they were waiting for.
		fmt.Fprintf(stderr, "pfserve: requests still running after %v; closing their connections\n", *drain)
		hs.Close()
	}
	ctx, cancel = context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "pfserve: shutdown: %v\n", err)
		return 1
	}
	return 0
}
