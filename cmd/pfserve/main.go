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
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/memtest/partialfaults/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run builds the server and serves until the listener fails. When ready
// is non-nil it receives the bound address once the listener is up —
// tests pass ":0" and read the real port from it.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("pfserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address")
		storeDir = fs.String("store", "", "persistent result-store directory (empty = in-memory only)")
		parallel = fs.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	srv, err := service.New(service.Config{StoreDir: *storeDir, Parallelism: *parallel})
	if err != nil {
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
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
	if err := hs.Serve(ln); err != nil {
		fmt.Fprintf(stderr, "pfserve: %v\n", err)
		return 1
	}
	return 0
}
