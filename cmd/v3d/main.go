// Command v3d is the real (TCP) V3 storage daemon: it exports one or more
// volumes over the V3 block protocol.
//
// Usage:
//
//	v3d -addr :9300 -size 256M                 # in-memory volume 1, 64 MB cache
//	v3d -addr :9300 -file /data/vol.img -size 1G -cache 32768
//	v3d -addr :9300 -cache 0 -stats 10s        # uncached: every request hits the store
//	v3d -addr :9300 -schedworkers 8 -admitlimit 512
//	v3d -addr :9300 -metrics :9400             # Prometheus text + JSON snapshot
//	v3d -addr :9300 -metrics :9400 -pprof      # + /debug/pprof/ profiles
//	v3d -addr :9300 -metrics :9400             # /debug/flightrec is always there
//
// With a cache (the default) a write is acknowledged once it is a dirty
// cache block: an acknowledged write is readable at once and durable after
// the client's next Flush.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

func parseSize(s string) (int64, error) {
	mult := int64(1)
	u := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, u[:len(u)-1]
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, u[:len(u)-1]
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, u[:len(u)-1]
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

func main() {
	addr := flag.String("addr", ":9300", "listen address")
	sizeStr := flag.String("size", "64M", "volume size (supports K/M/G suffix)")
	file := flag.String("file", "", "back the volume with this file (default: memory)")
	cache := flag.Int("cache", 8192, "server MQ cache size in 8K blocks, with write-behind and read-ahead (0 = uncached: every request goes to the store)")
	credits := flag.Int("credits", 64, "flow-control window per session")
	schedWorkers := flag.Int("schedworkers", 0, "request scheduler worker pool (0 = GOMAXPROCS)")
	admitLimit := flag.Int("admitlimit", 0, "foreground queue depth before admission control sheds (0 = schedworkers*256)")
	stats := flag.Duration("stats", 0, "log served/cache/pool counters at this interval (0 = off)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text and JSON metrics on this address (e.g. :9400; empty = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/ on the -metrics address")
	flag.Parse()

	size, err := parseSize(*sizeStr)
	if err != nil || size <= 0 {
		fmt.Fprintf(os.Stderr, "v3d: bad -size %q\n", *sizeStr)
		os.Exit(2)
	}
	cfg := netv3.DefaultServerConfig()
	cfg.Credits = *credits
	cfg.CacheBlocks = *cache
	cfg.SchedWorkers = *schedWorkers
	cfg.AdmitLimit = *admitLimit
	cfg.Logger = log.New(os.Stderr, "v3d: ", log.LstdFlags)
	var reg *obs.Registry
	if *metricsAddr != "" || *stats > 0 {
		reg = obs.New()
	}
	cfg.Metrics = reg
	// The flight recorder is always on: a fixed-size ring of recent
	// events, readable at /debug/flightrec, on SIGQUIT, and frozen
	// automatically around sheds and backend trips.
	flight := obs.NewFlight(0, 0)
	cfg.Flight = flight
	srv := netv3.NewServer(cfg)

	var store netv3.BlockStore
	if *file != "" {
		fs, err := netv3.NewFileStore(*file, size)
		if err != nil {
			log.Fatalf("v3d: %v", err)
		}
		store = fs
	} else {
		store = netv3.NewMemStore(size)
	}
	srv.AddVolume(1, store)

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("v3d: %v", err)
	}
	log.Printf("v3d: serving volume 1 (%d bytes) on %s", size, bound)

	// done is closed once Serve returns so the stats ticker goroutine
	// exits instead of leaking (time.Tick can never be stopped).
	done := make(chan struct{})
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(reg)) // any path except the debug tree: metrics, as before
		mux.Handle("/debug/flightrec", obs.FlightHandler(flight))
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			log.Printf("v3d: metrics on http://%s/metrics (add ?format=json for the snapshot)", *metricsAddr)
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("v3d: metrics server: %v", err)
			}
		}()
		go func() {
			<-done
			msrv.Close()
		}()
	}
	if *stats > 0 {
		go func() {
			t := time.NewTicker(*stats)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
				}
				snap := reg.Snapshot()
				line, err := json.Marshal(snap)
				if err != nil {
					log.Printf("v3d: stats snapshot: %v", err)
					continue
				}
				log.Printf("v3d: stats %s", line)
			}
		}()
	}
	// SIGINT/SIGTERM stop the server cleanly so deferred destage passes
	// run and the stats/metrics goroutines wind down.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("v3d: %v; shutting down", s)
		srv.Close()
	}()
	// SIGQUIT dumps the flight recorder to stderr and keeps serving —
	// the no-profiler-attached escape hatch when the daemon misbehaves.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			flight.Dump("SIGQUIT").WriteText(os.Stderr)
		}
	}()
	err = srv.Serve()
	close(done)
	if err != nil {
		log.Fatalf("v3d: %v", err)
	}
}
