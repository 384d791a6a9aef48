// Command xbroker runs one content-based XML router over TCP — the
// deployable broker of the dissemination network.
//
// Example 3-broker chain on one machine:
//
//	xbroker -id b1 -listen :7001 -admin 127.0.0.1:9001 -neighbors b2=localhost:7002
//	xbroker -id b2 -listen :7002 -admin 127.0.0.1:9002 -neighbors b1=localhost:7001,b3=localhost:7003
//	xbroker -id b3 -listen :7003 -admin 127.0.0.1:9003 -neighbors b2=localhost:7002
//
// Strategy flags select the paper's routing optimisations. The opt-in
// admin listener serves /metrics (Prometheus), /statusz (the machine-
// readable status snapshot xtop polls), /debug/traces (per-hop publication
// traces), /debug/routes (routing-table dump), /debug/slow (the slow-
// publication flight recorder), and /debug/pprof; it is unauthenticated,
// so bind it to localhost.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admin"
	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/publog"
	"repro/internal/slowlog"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	var (
		id        = flag.String("id", "b1", "broker identifier")
		listen    = flag.String("listen", ":7001", "TCP listen address")
		adminAddr = flag.String("admin", "", "admin HTTP address for /metrics, /debug/traces, /debug/routes, /debug/pprof (empty disables; unauthenticated — bind localhost)")
		neighbors = flag.String("neighbors", "", "comma-separated id=addr neighbour list")
		useAdv    = flag.Bool("adv", true, "advertisement-based subscription routing")
		useCov    = flag.Bool("cov", true, "covering-based table compaction")
		merging   = flag.String("merge", "off", "merging mode: off|perfect|imperfect")
		degree    = flag.Float64("degree", 0.1, "imperfect-merging degree tolerance")
		statsEach = flag.Duration("stats", 30*time.Second, "stats logging interval (0 disables)")
		traceBuf  = flag.Int("tracebuf", 1024, "trace events retained in the in-memory ring")

		slowThreshold = flag.Duration("slow-threshold", 50*time.Millisecond, "in-broker latency above which a publication is captured by the flight recorder (0 disables)")
		slowBuf       = flag.Int("slowbuf", 256, "slow publications retained in the flight recorder")

		heartbeat    = flag.Duration("heartbeat", 5*time.Second, "heartbeat interval on idle neighbour links (0 disables dead-peer detection)")
		deadAfter    = flag.Duration("dead-after", 0, "silence after which a neighbour link is declared dead (default 3x heartbeat)")
		reconnectMin = flag.Duration("reconnect-min", 0, "initial reconnect backoff for lost neighbour links (default 50ms)")
		reconnectMax = flag.Duration("reconnect-max", 0, "reconnect backoff ceiling (default 2s)")
		retryBuffer  = flag.Int("retry-buffer", 0, "control messages buffered per neighbour across outages (default 1024)")
		dialBudget   = flag.Int("dial-budget", 0, "consecutive failed dials before a link goes dormant until new control traffic (0 = unlimited)")

		durableDir    = flag.String("durable-dir", "", "publication-log directory for durable subscriptions (empty disables durability)")
		fsyncInterval = flag.Duration("fsync-interval", 5*time.Millisecond, "publication-log group-commit interval: how long an appended record may wait for its fsync while the batch grows (0 = fsync per drained batch)")
		retention     = flag.Int64("retention", 0, "force-reclaim the oldest closed log segments once the publication log exceeds this many bytes, even unacknowledged ones (0 = reclaim only fully-acknowledged segments)")
		retainAge     = flag.Duration("retain-age", 0, "force-reclaim closed log segments older than this (0 = never by age)")

		flushInterval  = flag.Duration("flush-interval", 0, "how long a queued publication may linger to grow its batch (0 = flush opportunistically, no added latency)")
		maxBatchBytes  = flag.Int("max-batch-bytes", 0, "flush a neighbour batch once it holds this many bytes (default 256KiB)")
		maxBatchFrames = flag.Int("max-batch-frames", 0, "flush a neighbour batch once it holds this many frames (default 128)")
	)
	flag.Parse()

	nb, err := parseNeighbors(*neighbors)
	if err != nil {
		log.Fatalf("xbroker: %v", err)
	}
	reg := metrics.NewRegistry()
	ring := trace.NewRing(*traceBuf)
	var slow *slowlog.Log
	if *slowThreshold > 0 {
		slow = slowlog.New(*slowThreshold, *slowBuf)
		// Every capture is also a structured log line, so slow publications
		// are diagnosable from the broker's log alone.
		slow.Logger = func(e slowlog.Entry) { log.Printf("slow publication %s", e) }
	}
	var store *publog.Store
	if *durableDir != "" {
		store, err = publog.Open(*durableDir, publog.Options{
			FsyncInterval: *fsyncInterval,
			RetainBytes:   *retention,
			RetainAge:     *retainAge,
		})
		if err != nil {
			log.Fatalf("xbroker: durable log: %v", err)
		}
		store.RegisterMetrics(reg)
		defer store.Close()
	}
	cfg := broker.Config{
		ID:                *id,
		UseAdvertisements: *useAdv,
		UseCovering:       *useCov,
		ImperfectDegree:   *degree,
		Metrics:           reg,
		TraceSink:         ring,
		SlowLog:           slow,
	}
	if store != nil {
		cfg.Durable = store
	}
	switch *merging {
	case "off":
		cfg.Merging = broker.MergeOff
	case "perfect":
		cfg.Merging = broker.MergePerfect
	case "imperfect":
		cfg.Merging = broker.MergeImperfect
	default:
		log.Fatalf("xbroker: unknown merging mode %q", *merging)
	}

	srv := transport.NewServerOptions(cfg, nb, transport.Options{
		Heartbeat:      *heartbeat,
		DeadAfter:      *deadAfter,
		ReconnectMin:   *reconnectMin,
		ReconnectMax:   *reconnectMax,
		RetryBuffer:    *retryBuffer,
		DialBudget:     *dialBudget,
		FlushInterval:  *flushInterval,
		MaxBatchBytes:  *maxBatchBytes,
		MaxBatchFrames: *maxBatchFrames,
	})
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("xbroker: %v", err)
	}
	log.Printf("broker %s listening on %s (%d neighbours, strategy %s)",
		*id, addr, len(nb), cfg.StrategyName())
	if store != nil {
		log.Printf("durable subscriptions enabled, publication log in %s (fsync every %v)", *durableDir, *fsyncInterval)
	}

	if *adminAddr != "" {
		status := &admin.Status{
			Broker:   *id,
			Started:  time.Now(),
			Registry: reg,
			Links:    func() any { return srv.Links() },
			Queues:   srv.QueueDepths,
			Slow:     slow,
			Table:    func() any { return srv.Broker().TableStatus() },
		}
		if store != nil {
			status.Publog = func() any { return store.Status() }
		}
		h := admin.Endpoints{
			Metrics: reg,
			Traces:  ring,
			Routes:  func() any { return srv.Broker().Routes() },
			Slow:    slow,
			Status:  status,
		}.Handler()
		bound, stopAdmin, err := admin.Serve(*adminAddr, h)
		if err != nil {
			log.Fatalf("xbroker: admin: %v", err)
		}
		defer stopAdmin()
		log.Printf("admin endpoints on http://%s/metrics (unauthenticated — keep it private)", bound)
	}

	if *statsEach > 0 {
		go func() {
			for range time.Tick(*statsEach) {
				log.Printf("stats %s", statsLine(reg))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	// Flush a final snapshot so post-mortem logs carry the closing counts.
	log.Printf("final stats %s", statsLine(reg))
	log.Printf("broker %s shutting down", *id)
	srv.Close()
}

// statsLine renders the registry as one key=value log line.
func statsLine(reg *metrics.Registry) string {
	var b strings.Builder
	reg.WriteKeyValue(&b)
	return b.String()
}

func parseNeighbors(spec string) (map[string]string, error) {
	out := make(map[string]string)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad neighbour %q (want id=addr)", part)
		}
		out[kv[0]] = kv[1]
	}
	return out, nil
}
