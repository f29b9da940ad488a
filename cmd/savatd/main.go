// Command savatd is the measurement campaign daemon: it accepts
// savat.CampaignSpec submissions over an HTTP JSON API, runs them on a
// shared cache with in-flight deduplication and per-tenant fair
// scheduling, and streams progress events. Finished cells persist in the
// state directory's cell store, so a cancelled or killed campaign
// resumes when resubmitted. See DESIGN.md §12 and the README's "Running
// as a service" section.
//
//	savatd -addr localhost:8080 -state-dir /var/lib/savatd
//
// The API is mounted under /v1/campaigns; the observability surface
// (/metrics, /progress, /debug/vars) is mounted alongside it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8080", "listen address (host:port; port 0 picks one)")
		stateDir    = flag.String("state-dir", "", "persistent state root: the durable result cache (empty = in-memory only)")
		maxActive   = flag.Int("max-active", 2, "campaigns running concurrently")
		parallelism = flag.Int("parallelism", 0, "workers per campaign (0 = GOMAXPROCS)")
		cacheCap    = flag.Int("cache-capacity", 0, "in-memory result cache entries (0 = default)")
	)
	flag.Parse()
	if err := run(*addr, service.Options{
		StateDir:      *stateDir,
		MaxActive:     *maxActive,
		Parallelism:   *parallelism,
		CacheCapacity: *cacheCap,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "savatd:", err)
		os.Exit(1)
	}
}

func run(addr string, opts service.Options) error {
	srv, err := service.New(opts)
	if err != nil {
		return err
	}

	// Metrics on: the daemon serves /metrics itself, and enabling the
	// registry populates the health latency quantiles in every progress
	// event the API streams.
	obs.Default.SetEnabled(true)

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	mux.Handle("/", obs.Handler(obs.Default, func() any { return srv.List() }))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}

	// The daemon-smoke harness (and humans with -addr :0) parse this
	// line for the bound address; keep its shape stable.
	fmt.Printf("savatd: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		fmt.Printf("savatd: %v, shutting down\n", sig)
	case err := <-errc:
		srv.Close()
		return err
	}

	// Graceful shutdown: cancel the running campaigns (which also ends
	// any open event streams) and flush the cell store, then drain HTTP.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	return nil
}
