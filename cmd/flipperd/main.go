// Command flipperd serves flipping-correlation mining over HTTP: an async
// job queue with a bounded worker pool and an LRU result cache over a
// registry of named datasets.
//
// Usage:
//
//	flipperd -data DIR [-addr :8080] [-workers 2] [-queue 64] [-cache 128]
//	         [-history 1000] [-stream] [-debug-addr localhost:6060]
//	         [-job-timeout 0] [-max-job-timeout 15m]
//	         [-heartbeat-interval 1s] [-hedge-quantile 0.9]
//	flipperd -data DIR -worker -join http://coordinator:8080
//	         [-advertise http://me:8081] [-worker-id NAME]
//
// The data directory holds one subdirectory per dataset, each with a
// taxonomy.tsv (child<TAB>parent edges) and either a baskets.txt (one
// transaction per line, comma-separated item names) or a shards/ directory
// of per-shard basket files — exactly the two layouts flipgen writes:
//
//	flipgen -out data/groceries dataset -name groceries
//	flipgen -out data/medline -shards 8 dataset -name medline
//	flipperd -data data
//
// Sharded datasets are mined shard-parallel (a bounded pool of counting
// workers over the shard files), with output byte-identical to the
// single-file layout. With
// -stream, basket files stay on disk and are re-read on every counting
// pass (the paper's disk-resident mode) — shard files in parallel, so big
// datasets mine without ever being resident in memory; otherwise each
// dataset is read into memory once at startup. The flag is the only switch:
// no job configuration changes the mode.
//
// Multi-node operation (docs/OPERATIONS.md): the default mode is a
// coordinator — it serves the /v1 API, accepts worker heartbeats on
// /cluster/heartbeat, and sends every counting pass, one unit per shard,
// to the registered workers, each of which answers a unit's candidates with
// their supports over its shard; results are byte-identical to a
// single-process mine, stats included. Shards no worker can serve are
// counted locally (degraded mode). With -worker the process instead serves
// only the /cluster counting endpoints and pushes heartbeats to -join;
// workers must load the same -data directory in the same layout and -stream
// mode (fingerprints cover the shard layout, the loading mode and a digest
// of the baskets and are verified per request, so skewed workers are
// rejected, not silently wrong).
//
// API (JSON; see docs/ARCHITECTURE.md):
//
//	POST   /v1/jobs        {"dataset":"groceries","config":{"epsilon":0.2}}
//	                       optional "timeout_ms" caps the job's run time
//	GET    /v1/jobs/{id}   poll status; result envelope appears when done
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/datasets    registered datasets
//	GET    /v1/healthz     liveness
//	GET    /v1/readyz      readiness (queue saturation, drain, cluster reach)
//	GET    /v1/stats       cache hit rate, queue depth, per-job stats
//	GET    /cluster/workers  worker registry with health states
//
// Every job runs under a deadline: the request's timeout_ms if given, else
// -job-timeout, both clamped by -max-job-timeout (default 15m). Expired or
// cancelled jobs finish with status "cancelled". On SIGTERM readiness
// flips to 503 (draining) and the queue is drained: running jobs complete
// and are recorded before exit.
//
// Identical submissions are served from the cache (or coalesced onto the
// in-flight job), so re-issued mines and ε-sweeps cost one computation.
//
// -debug-addr (off by default) serves net/http/pprof on a separate
// listener, so the mining hot paths can be profiled against the live
// service without exposing profiling endpoints on the API address:
//
//	flipperd -data data -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//
// See README.md ("Profiling the service") for the workflow.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/flipper-mining/flipper/internal/cluster"
	"github.com/flipper-mining/flipper/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dataDir = flag.String("data", "", "data directory (one subdirectory per dataset)")
		workers = flag.Int("workers", 2, "mining worker pool size")
		queue   = flag.Int("queue", 64, "max queued jobs (further submissions get 503)")
		cache   = flag.Int("cache", 128, "result cache capacity in entries (0 disables)")
		history = flag.Int("history", 1000, "max completed jobs kept pollable (older ones are pruned)")
		stream  = flag.Bool("stream", false, "disk-resident mode: re-read basket files on every pass")
		debug   = flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		jobTimeout = flag.Duration("job-timeout", 0, "default per-job deadline applied when a submission has no timeout_ms (0 = cap at -max-job-timeout)")
		maxTimeout = flag.Duration("max-job-timeout", 0, "hard ceiling on any job's deadline, clamping timeout_ms and -job-timeout (0 = 15m)")

		workerMode = flag.Bool("worker", false, "run as a counting worker: serve /cluster endpoints and heartbeat to -join instead of the /v1 API")
		join       = flag.String("join", "", "coordinator base URL a -worker heartbeats to (e.g. http://coordinator:8080)")
		advertise  = flag.String("advertise", "", "URL the coordinator should dial this worker at (default http://<hostname><addr>)")
		workerID   = flag.String("worker-id", "", "stable worker identity in the coordinator's registry (default hostname)")
		hbInterval = flag.Duration("heartbeat-interval", time.Second, "worker heartbeat period; the coordinator marks workers suspect after 3 missed beats and dead after 9")
		hedgeQ     = flag.Float64("hedge-quantile", 0.9, "straggler deadline: hedge a shard dispatch still unanswered after this quantile of recent latencies (>= 1 disables hedging)")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "flipperd: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := service.NewRegistry()
	names, err := reg.LoadDir(*dataDir, *stream)
	if err != nil {
		log.Fatalf("flipperd: %v", err)
	}
	if len(names) == 0 {
		log.Fatalf("flipperd: no datasets in %s (want subdirectories with taxonomy.tsv + baskets.txt)", *dataDir)
	}
	for _, info := range reg.List() {
		log.Printf("flipperd: dataset %q: %d tx, height %d, %d nodes (stream=%v)",
			info.Name, info.Transactions, info.Height, info.Nodes, info.Stream)
	}

	// Both roles share the catalog: the coordinator resolves datasets and
	// mines the degraded fallback through it; workers count against it.
	// Fingerprints guard against version skew between nodes.
	cat := cluster.NewCatalog()
	for _, name := range names {
		d, ok := reg.Get(name)
		if !ok {
			continue
		}
		cat.Add(name, d.Engine(), d.Tree, cluster.NewFingerprint(name, d.Src, d.Tree))
	}

	if *workerMode {
		runWorker(cat, *addr, *join, *advertise, *workerID, *hbInterval)
		return
	}

	var debugSrv *http.Server
	if *debug != "" {
		// A dedicated mux on a dedicated listener: the profiling surface
		// never shares an address with the public API, and the default
		// ServeMux (which net/http/pprof would register on) stays empty.
		// The server is shut down on the same signal path as the API
		// listener, so the debug port does not outlive the service.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debug, Handler: mux}
		go func() {
			log.Printf("flipperd: pprof on http://%s/debug/pprof/", *debug)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("flipperd: pprof listener: %v", err)
			}
		}()
	}

	co := cluster.New(cat, cluster.Options{
		SuspectAfter:  3 * *hbInterval,
		DeadAfter:     9 * *hbInterval,
		HedgeQuantile: *hedgeQ,
	})

	srv := service.NewServer(reg, service.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheSize:     *cache,
		JobHistory:    *history,
		JobTimeout:    *jobTimeout,
		MaxJobTimeout: *maxTimeout,
		Coordinator:   co,
	})
	mux := http.NewServeMux()
	mux.Handle("/cluster/", co.Handler())
	mux.Handle("/", srv.Handler())
	httpSrv := &http.Server{Addr: *addr, Handler: mux}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("flipperd: shutting down")
		// Flip readiness first so load balancers stop routing new
		// submissions while in-flight requests finish under Shutdown.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("flipperd: shutdown: %v", err)
		}
		if debugSrv != nil {
			if err := debugSrv.Shutdown(ctx); err != nil {
				log.Printf("flipperd: pprof shutdown: %v", err)
			}
		}
		// Close drains in-flight jobs: a mine that finished computing is
		// always recorded before the workers exit.
		srv.Close()
	}()

	log.Printf("flipperd: listening on %s (%d workers, queue %d, cache %d)",
		*addr, *workers, *queue, *cache)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("flipperd: %v", err)
	}
	<-done
}

// runWorker serves the counting endpoints and heartbeats to the
// coordinator until SIGTERM. Workers hold no job state, so shutdown is
// just closing the listener: in-flight count requests are cheap and the
// coordinator retries or hedges any that are cut off.
func runWorker(cat *cluster.Catalog, addr, join, advertise, id string, interval time.Duration) {
	if join == "" {
		fmt.Fprintln(os.Stderr, "flipperd: -worker requires -join (coordinator URL)")
		os.Exit(2)
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	if id == "" {
		id = host
	}
	if advertise == "" {
		if strings.HasPrefix(addr, ":") {
			advertise = "http://" + host + addr
		} else {
			advertise = "http://" + addr
		}
	}

	w := cluster.NewWorker(id, cat)
	httpSrv := &http.Server{Addr: addr, Handler: w.Handler()}

	ctx, stop := context.WithCancel(context.Background())
	go w.HeartbeatLoop(ctx, join, advertise, interval, nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("flipperd: worker shutting down")
		stop() // end the heartbeat loop so the coordinator marks us dead
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("flipperd: worker shutdown: %v", err)
		}
	}()

	log.Printf("flipperd: worker %q on %s, joining %s (advertising %s)", id, addr, join, advertise)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("flipperd: worker: %v", err)
	}
	<-done
}
