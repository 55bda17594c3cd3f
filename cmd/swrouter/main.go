// Command swrouter is the scatter-gather coordinator of the sharded
// search cluster (DESIGN.md §15). It partitions the database across N
// swserver shard processes with a consistent-hash shard map, scatters
// every client query to all shards concurrently, and merges their
// bounded-heap top-K answers into one globally ordered result that is
// bit-identical — ordering and tie-breaks included — to a single-node
// search over the whole database.
//
// The routing policy treats each shard the way PR 5 taught the
// pipeline to treat a failing compute stage: transient shard errors
// retry with bounded backoff, slow shards get hedged requests, and a
// shard that keeps failing is quarantined by its own circuit breaker.
// A response never blocks on a dead shard — it returns the merged
// hits of the shards that answered, and carries the partial-result
// contract (which shards answered, which were degraded, which were
// skipped) so clients always know whether they saw the whole
// database. Per-shard routing counters are served on the opt-in admin
// port's /debug/vars as "swvec.cluster".
//
// Router, spawning its own local shard fleet:
//
//	swrouter -listen :7900 -spawn 3 -swserver-bin ./swserver -gen-db 4000
//
// Router, targeting already-running shards:
//
//	swrouter -listen :7900 -db db.fasta -shards host1:7979,host2:7979,host3:7979
//
// Client:
//
//	swrouter -connect localhost:7900 -query q.fasta [-top 5]
//
// The wire protocol is swserver's newline-delimited JSON, and the
// connection handling, admission limits, shutdown, admin port and
// client mode are the front end both commands share (internal/serve),
// so `swserver -connect` and `swrouter -connect` are the same client:
// it prints the per-response shard report whenever a router's answer
// was partial, degraded or failed over.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/serve"
)

func main() {
	var (
		listen    = flag.String("listen", "", "serve on this address (router mode)")
		connect   = flag.String("connect", "", "connect to this address (client mode)")
		dbPath    = flag.String("db", "", "database FASTA (router mode; must match the shards')")
		genDB     = flag.Int("gen-db", 0, "use the synthetic database of this size instead of -db")
		shards    = flag.String("shards", "", "comma-separated shard addresses to target (replica-major with -replicas)")
		spawn     = flag.Int("spawn", 0, "spawn this many local swserver shard processes instead of -shards")
		replicas  = flag.Int("replicas", 1, "replicas per shard slice (multiplies -spawn procs; groups -shards addresses)")
		bin       = flag.String("swserver-bin", "swserver", "swserver binary for -spawn")
		shardArgs = flag.String("shard-args", "", "extra space-separated flags for spawned shards")

		shardTimeout = flag.Duration("shard-timeout", 10*time.Second, "per-attempt shard deadline")
		hedgeAfter   = flag.Duration("hedge-after", 150*time.Millisecond, "hedge a shard unanswered after this delay (0 disables)")
		retries      = flag.Int("retries", 2, "retries per replica on transient errors before failing over")
		brkFails     = flag.Int("breaker-failures", 3, "consecutive replica failures that quarantine it")
		brkCool      = flag.Duration("breaker-cooldown", 5*time.Second, "replica quarantine duration before a probe")
		probeEvery   = flag.Duration("probe-interval", time.Second, "health-ping period per replica")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second, "per-ping deadline for the health prober")

		maxConns    = flag.Int("max-conns", 256, "maximum concurrent client connections")
		maxInflight = flag.Int("max-inflight", 64, "maximum concurrent scatters")
		idle        = flag.Duration("idle-timeout", 2*time.Minute, "per-connection read deadline (0 disables)")
		maxSeq      = flag.Int("max-seq", 100000, "maximum query residues per request (0 disables)")
		maxBody     = flag.Int("max-body", 8<<20, "maximum request line size in bytes")
		admin       = flag.String("admin", "", "opt-in admin address serving /debug/vars and pprof")

		query   = flag.String("query", "", "query FASTA (client mode; all records are submitted)")
		top     = flag.Int("top", 5, "hits per query")
		timeout = flag.Duration("timeout", 30*time.Second, "client-mode dial and I/O deadline (0 disables)")
	)
	flag.Parse()

	switch {
	case *listen != "":
		runRouter(routerSetup{
			listen: *listen, dbPath: *dbPath, genDB: *genDB,
			shards: *shards, spawn: *spawn, replicas: *replicas,
			bin: *bin, shardArgs: *shardArgs,
			admin: *admin,
			pol: cluster.Policy{
				Timeout:         *shardTimeout,
				HedgeAfter:      *hedgeAfter,
				Retries:         *retries,
				BreakerFailures: *brkFails,
				BreakerCooldown: *brkCool,
				ProbeInterval:   *probeEvery,
				ProbeTimeout:    *probeTimeout,
			},
			cfg: routerConfig{
				maxConns:    *maxConns,
				maxInflight: *maxInflight,
				idle:        *idle,
				maxSeq:      *maxSeq,
				maxBody:     *maxBody,
				defaultTop:  *top,
			},
		})
	case *connect != "":
		code, err := serve.RunClient(os.Stdout, *connect, *query, *top, *timeout)
		if err != nil {
			fatal("%v", err)
		}
		os.Exit(code)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

type routerSetup struct {
	listen    string
	dbPath    string
	genDB     int
	shards    string
	spawn     int
	replicas  int
	bin       string
	shardArgs string
	admin     string
	pol       cluster.Policy
	cfg       routerConfig
}

func runRouter(s routerSetup) {
	// The router needs the shards' database for the global merge index
	// and the shard length profile: with -gen-db both sides regenerate
	// it from the fixed seed, with -db they read the same file.
	db, _, err := serve.LoadDB(s.dbPath, s.genDB)
	if err != nil {
		fatal("%v", err)
	}
	if s.replicas < 1 {
		fatal("-replicas must be at least 1, got %d", s.replicas)
	}

	var addrs []string
	var procs []*cluster.Proc
	switch {
	case s.spawn > 0:
		opt := cluster.SpawnOptions{
			Bin:      s.bin,
			Shards:   s.spawn,
			Replicas: s.replicas,
			GenDB:    s.genDB,
			DBPath:   s.dbPath,
			Logf:     log.Printf,
		}
		if s.shardArgs != "" {
			opt.ExtraArgs = strings.Fields(s.shardArgs)
		}
		procs, err = cluster.SpawnShards(opt)
		if err != nil {
			fatal("%v", err)
		}
		for _, p := range procs {
			addrs = append(addrs, p.Addr)
		}
	case s.shards != "":
		for _, a := range strings.Split(s.shards, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	if len(addrs) == 0 {
		fatal("router mode needs -shards or -spawn")
	}

	// Group the flat (replica-major) address list into per-shard
	// replica sets, ordered by the restart-stable failover priority.
	groups, err := cluster.GroupReplicas(addrs, s.replicas)
	if err != nil {
		fatal("%v", err)
	}
	nshards := len(groups)

	// The validation aligner mirrors the shards' default alphabet so
	// admission rejects exactly what the shards would reject.
	al, err := swvec.New()
	if err != nil {
		fatal("%v", err)
	}

	smap := cluster.NewShardMap(nshards)
	profile := smap.Profile(db)
	for _, sp := range profile {
		log.Printf("level=info event=shard_profile shard=%d replicas=%q seqs=%d residues=%d len_min=%d len_median=%d len_max=%d",
			sp.Shard, strings.Join(groups[sp.Shard], ","), sp.Sequences, sp.Residues, sp.MinLen, sp.MedianLen, sp.MaxLen)
	}

	pool := cluster.NewReplicatedPool(groups, cluster.NewIndex(db), s.pol)
	pool.StartProber()
	if s.admin != "" {
		// The per-shard and per-replica routing counters and the shard
		// map join /debug/vars, and /debug/cluster serves the same
		// snapshot as JSON.
		pool.Metrics().Publish()
		expvar.Publish("swvec.cluster.profile", expvar.Func(func() any { return profile }))
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(pool.Metrics().Snapshot())
		})
		if _, err := serve.StartAdmin(s.admin, mux, log.Printf); err != nil {
			fatal("%v", err)
		}
	}

	ln, err := net.Listen("tcp", s.listen)
	if err != nil {
		fatal("%v", err)
	}
	rt := newRouter(pool, al, ln, s.cfg, log.Printf)
	log.Printf("level=info event=listen addr=%s shards=%d replicas=%d db_seqs=%d hedge_after=%s retries=%d",
		ln.Addr(), nshards, s.replicas, len(db), s.pol.HedgeAfter, s.pol.Retries)
	rt.Run()
	// Hang up the idle shard connections before the spawned shards are
	// stopped.
	pool.Close()
	for _, p := range procs {
		if err := p.Stop(); err != nil {
			log.Printf("level=warn event=shard_stop shard=%d err=%q", p.Shard, err)
		}
	}
	snap := pool.Metrics().Snapshot()
	log.Printf("level=info event=exit scatters=%d partial=%d", snap.Scatters, snap.Partial)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "swrouter: "+format+"\n", args...)
	os.Exit(1)
}
