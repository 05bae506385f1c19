package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"semilocal"
)

// Test hooks for the -serve-addr mode: the server binds a dynamic port
// and blocks until a signal, so the e2e tests need to learn the bound
// address and stop the server without process signals. Both are nil in
// production.
var (
	// serveReady, when non-nil, is called once with the bound address
	// after the listener is up.
	serveReady func(addr string)
	// serveStop, when non-nil, replaces the signal wait: closing the
	// channel shuts the server down.
	serveStop <-chan struct{}
)

// runServe runs the HTTP serving tier (-serve-addr): one engine with a
// stage recorder, an optional chaos injector and an optional persistent
// kernel store. The engine hardening flags (-max-queue, -retries,
// -deadline, -degrade-below, -chaos, -banded, -store-dir) configure
// that engine; -tenant-quota layers per-tenant admission on top. Blocks until SIGINT/SIGTERM, then drains and prints the
// final counters.
func runServe(addr string, tenantQuota int, opts batchOptions, out io.Writer) error {
	rec := semilocal.NewStageRecorder()
	var inj *semilocal.ChaosInjector
	if len(opts.chaosRules) > 0 {
		var err error
		inj, err = semilocal.NewChaosInjector(semilocal.ChaosConfig{
			Seed: opts.chaosSeed, Rules: opts.chaosRules, Obs: rec,
		})
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
	}
	var kstore *semilocal.KernelStore
	if opts.storeDir != "" {
		var err error
		kstore, err = semilocal.OpenStore(opts.storeDir, semilocal.StoreConfig{})
		if err != nil {
			return err
		}
		// Closed after the server: Server.Close drains the engine's
		// pending appends first.
		defer kstore.Close()
	}
	srv, err := semilocal.NewServer(semilocal.ServerConfig{
		TenantQuota: tenantQuota,
		Engine: semilocal.EngineOptions{
			Config:   semilocal.Config{Algorithm: opts.algorithm},
			Workers:  opts.workers,
			Obs:      rec,
			MaxQueue: opts.maxQueue,
			Retry: semilocal.RetryPolicy{
				MaxAttempts: opts.retries,
				BaseBackoff: opts.retryBackoff,
			},
			Deadline:     opts.deadline,
			DegradeBelow: opts.degradeBelow,
			Chaos:        inj,
			Banded:       semilocal.BandedConfig{Enabled: opts.banded, MaxK: opts.bandMaxK},
			Store:        kstore,
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(out, "# serving: http://%s (POST /v1/batch, /v1/stream; GET /metrics, /healthz)\n", ln.Addr())
	if serveReady != nil {
		serveReady(ln.Addr().String())
	}

	stop := serveStop
	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		ch := make(chan struct{})
		go func() { <-sig; close(ch) }()
		stop = ch
	}
	select {
	case <-stop:
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	srv.Close()
	fmt.Fprintf(out, "# server: %s\n", srv.StatsLine())
	return nil
}
