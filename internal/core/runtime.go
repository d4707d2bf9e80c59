// Package core is the Samhita runtime: it assembles the manager, the
// memory servers, the simulated fabric and the per-thread software
// caches into the virtual shared memory system of the paper, and exposes
// it through the backend-neutral vm.VM interface.
//
// Topology follows Figure 1 and the evaluation setup of Section III: one
// node runs the manager, one or more nodes run memory servers, and
// compute threads execute on the remaining nodes (8 cores per node,
// matching the dual quad-core Harpertown compute nodes — or the cores of
// a coprocessor in the heterogeneous mapping). Every component-to-
// component message crosses the fabric's link model.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proto"

	"repro/internal/faultnet"
	"repro/internal/layout"
	"repro/internal/manager"
	"repro/internal/memserver"
	"repro/internal/scl"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// Node-id plan for the fabric. New rejects a topology that would put two
// components on one node (checkNodePlan).
const (
	managerNode         scl.NodeID = 1
	controlNode         scl.NodeID = 3 // the runtime's own endpoint: promotions, drains, shutdown
	firstMgrReplicaNode scl.NodeID = 4 // manager replicas 1.. (replica 0 is managerNode)
	firstServerNode     scl.NodeID = 10
	firstStandbyNode    scl.NodeID = 50
	firstThreadNode     scl.NodeID = 100
)

// Node-id helpers for fault scripting (faultnet.Kill targets and
// partition nodes are fabric node ids, not thread/server indices).

// ManagerNode is the fabric node of the central manager (the initial
// leader when manager replication is on).
func ManagerNode() scl.NodeID { return managerNode }

// MgrReplicaNode is the fabric node of manager replica i (0-based;
// replica 0 is the initial leader at ManagerNode).
func MgrReplicaNode(i int) scl.NodeID {
	if i == 0 {
		return managerNode
	}
	return firstMgrReplicaNode + scl.NodeID(i-1)
}

// ServerNode is the fabric node of primary memory server i (0-based).
func ServerNode(i int) scl.NodeID { return firstServerNode + scl.NodeID(i) }

// StandbyNode is the fabric node of the warm standby for server i.
func StandbyNode(i int) scl.NodeID { return firstStandbyNode + scl.NodeID(i) }

// ThreadNode is the fabric node of the compute thread with protocol
// writer id w. Writer ids start at 1 (0 means "no writer") and are
// assigned sequentially across a runtime's lifetime, so in a runtime's
// first Run thread t has writer id t+1.
func ThreadNode(w int) scl.NodeID { return firstThreadNode + scl.NodeID(w) }

// Transport abstracts how component endpoints attach to the
// interconnect. The default is the in-process simulated fabric; a
// scl.TCPFactory runs the identical protocol over real sockets — the
// SCL portability the paper designs for (IB verbs today, SCIF
// tomorrow).
type Transport interface {
	NewEndpoint(id scl.NodeID) (scl.Endpoint, error)
	Close() error
}

// Config parameterizes a Samhita instance.
type Config struct {
	// Geo is the address-space geometry (page size, line pages, memory
	// servers, striping).
	Geo layout.Geometry
	// Link is the interconnect model between components (QDR InfiniBand
	// in the paper's testbed; PCIe/SCIF in its future-work target).
	Link vtime.LinkModel
	// CPU is the compute-side cost model.
	CPU vtime.CPUModel
	// CacheLines bounds each thread's software cache (0 = default).
	CacheLines int
	// Prefetch enables anticipatory paging.
	Prefetch bool
	// PrefetchDepth is how many lines ahead the stride prefetcher runs
	// when Prefetch is on (0 = 1, the paper's one-line-ahead strategy).
	PrefetchDepth int
	// StripeMin is the size at (and above) which GlobalAlloc uses the
	// striped strategy instead of the shared zone (0 = 1 MiB).
	StripeMin int
	// ThreadsPerNode controls placement (0 = 8, the paper's core count
	// per node).
	ThreadsPerNode int
	// ServerShards splits each memory server's page space into this many
	// shards, each with its own service calendar (0 or 1 = one).
	// Shards map line-granularly via Geometry.ShardOf; fetches, diff
	// batches and evict flushes against disjoint shards overlap in
	// virtual time, and the server splits multi-shard requests and
	// joins the replies. Per-page interval-tag semantics and
	// sequenced-run determinism are preserved.
	ServerShards int
	// HotBytes, when positive, puts each memory server's page store
	// behind a tiered layout: at most HotBytes of uncompressed pages per
	// server stay resident (an LRU hot set, split across its shards),
	// and pages past the budget are demoted — word-run compressed — to
	// a cold tier whose promotion/demotion costs follow ColdPreset.
	// 0 disables tiering: every page stays hot and the data path is
	// byte-identical to the untiered server.
	HotBytes int64
	// ColdPreset names the cold tier's cost model ("cold-nvme"/"nvme",
	// the default, or "cold-remote"/"remote" — a far-memory frame table
	// over the fabric). Only consulted when HotBytes > 0.
	ColdPreset string
	// ManagerShards splits the manager's synchronization state into this
	// many homes (0 or 1 = one home). Locks, barriers and condition
	// variables map to homes by a splitmix-mixed id; each home advances
	// its own virtual clock, so traffic on unrelated sync objects stops
	// serializing on one manager clock. The lock protocol does not
	// depend on it: on the sequenced fabric the manager hands contended
	// locks over peer-to-peer at every home count (the home announces
	// the next waiter to the holder, which forwards the grant plus the
	// notice backlog directly at release).
	ManagerShards int
	// ManagerReplicas runs the manager as a replica group of this size
	// (0 or 1 = the historical single manager, preserved bit-
	// identically). Every client-plane mutation is driven through a
	// replicated log before it is applied, so a standby replica holds
	// the same lock/barrier/cond tables, notice directory, membership
	// and allocation zones as the leader; when the leader dies (or is
	// deposed), the runtime promotes the lowest-indexed survivor and
	// redirects every manager-bound send at it. Replica-to-replica
	// links are priced vtime.IntraNode: the paper's manager is one
	// process, and its replicated form co-locates the replicas.
	ManagerReplicas int
	// Transport selects the communication substrate (nil = the
	// simulated fabric priced by Link).
	Transport Transport
	// Retry, if non-nil, wraps every endpoint the runtime creates —
	// compute threads, cache agents, memory servers, manager — in the
	// SCL retry layer: transient transport failures (dead TCP
	// connections, injected faults, partitions) are retried with
	// exponential backoff, and exhaustion surfaces scl.ErrUnreachable
	// as a clean error instead of a hang. Leave Timeout zero: DSM
	// calls legitimately park (locks, barriers, tag-parked fetches).
	Retry *scl.RetryPolicy
	// Faults, if non-nil, injects transport faults (drops, delays,
	// duplicate responses, partitions) beneath the retry layer on
	// every endpoint — chaos testing. Set Retry as well or the
	// injected faults will surface as immediate errors.
	Faults *faultnet.Injector
	// Net receives the transport-robustness counters (retries,
	// timeouts, injected faults). Allocated automatically when Retry
	// or Faults is set; supply one to share it with other collectors.
	Net *stats.Net
	// Tier receives the tiered-page-store counters (hot hits, tier
	// moves, snapshot seals, CoW breaks). Allocated automatically;
	// supply one to accumulate across several runtimes.
	Tier *stats.Tier
	// Trace, if non-nil, records protocol events (faults, fetches,
	// lock/barrier spans) in virtual time for Chrome-trace export.
	Trace *trace.Collector
	// Liveness, if non-nil, turns on the liveness layer: heartbeat
	// membership at the manager (dead threads' locks are force-
	// released, barrier counts recomputed, parked waiters completed
	// with proto.ErrPeerDied instead of hanging) and, with Standby
	// set, warm-standby replication and failover for the memory
	// servers. Heartbeats are wall-clock driven and processed at zero
	// virtual cost, so simulated-time results stay deterministic.
	Liveness *LivenessConfig
}

// LivenessConfig parameterizes the liveness layer.
type LivenessConfig struct {
	// HeartbeatEvery is the wall-clock heartbeat period (0 = 5ms).
	HeartbeatEvery time.Duration
	// MissedBeats is how many periods may elapse without a beat before
	// a member is declared dead (0 = 4).
	MissedBeats int
	// Standby boots one warm-standby memory server per primary and
	// streams every applied mutation to it; when a primary dies, the
	// runtime promotes its standby and redirects fetches there. It
	// also disables the lazy single-writer optimization: retained
	// diffs live only in a writer's memory and would be lost with it,
	// so releases must put the bytes at the (replicated) home.
	Standby bool
	// Live receives the liveness counters (allocated automatically;
	// supply one to share it with other collectors).
	Live *stats.Liveness
}

// Lease is the wall-clock window after which a silent member is
// declared dead.
func (lc *LivenessConfig) Lease() time.Duration {
	return lc.HeartbeatEvery * time.Duration(lc.MissedBeats)
}

// DefaultConfig returns the configuration matching the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Geo:            layout.DefaultGeometry(),
		Link:           vtime.QDRInfiniBand,
		CPU:            vtime.DefaultCPU,
		CacheLines:     pagecacheDefaultLines,
		Prefetch:       true,
		StripeMin:      1 << 20,
		ThreadsPerNode: 8,
	}
}

const pagecacheDefaultLines = 4096

// arenaChunk is the size of the chunks threads request from the manager
// for their local arenas.
const arenaChunk = 256 << 10

// HeterogeneousConfig returns the configuration of the paper's Figure-1
// scenario — the system the whole paper is arguing for: compute threads
// on a Xeon-Phi-class coprocessor (many slow cores, small memory used
// purely as cache), with the manager and memory server on the host
// processor whose large DRAM backs the global address space, connected
// by the PCI Express bus through a SCIF-class SCL implementation.
func HeterogeneousConfig() Config {
	cfg := DefaultConfig()
	cfg.Link = vtime.PCIeSCIF
	cfg.CPU = vtime.XeonPhiCPU
	cfg.ThreadsPerNode = 60 // one KNC-class coprocessor
	cfg.CacheLines = 2048   // the card's memory is smaller than the host's
	return cfg
}

func (c *Config) fillDefaults() {
	if c.Geo.PageSize == 0 {
		c.Geo = layout.DefaultGeometry()
	}
	if c.Link.Name == "" {
		c.Link = vtime.QDRInfiniBand
	}
	if c.CPU.FlopTime == 0 {
		c.CPU = vtime.DefaultCPU
	}
	if c.CacheLines <= 0 {
		c.CacheLines = pagecacheDefaultLines
	}
	if c.StripeMin <= 0 {
		c.StripeMin = 1 << 20
	}
	if c.ThreadsPerNode <= 0 {
		c.ThreadsPerNode = 8
	}
	if c.ServerShards < 1 {
		c.ServerShards = 1
	}
	if c.ManagerShards < 1 {
		c.ManagerShards = 1
	}
	if c.ManagerReplicas < 1 {
		c.ManagerReplicas = 1
	}
	if c.Net == nil && (c.Retry != nil || c.Faults != nil) {
		c.Net = new(stats.Net)
	}
	if c.Liveness != nil {
		if c.Liveness.HeartbeatEvery <= 0 {
			c.Liveness.HeartbeatEvery = 5 * time.Millisecond
		}
		if c.Liveness.MissedBeats <= 0 {
			c.Liveness.MissedBeats = 4
		}
		if c.Liveness.Live == nil {
			c.Liveness.Live = new(stats.Liveness)
		}
	}
}

// Runtime is a running Samhita instance.
type Runtime struct {
	cfg       Config
	fabric    *simnet.Fabric // nil when a custom Transport is used
	transport Transport

	// gate is the fabric's runnable-token ledger. On a sequenced fabric
	// (clean simulated runs) every goroutine that can send traffic must
	// report spawn/park/exit through it; otherwise it is a no-op.
	gate simnet.Gate

	mgrs     []*manager.Manager // all manager replicas, by index
	servers  []*memserver.Server
	standbys []*memserver.Server
	wg       sync.WaitGroup

	// The address book: who holds the manager and each home now.
	mgr   *role
	homes []*role
	// ctl is the runtime's own endpoint, the only one that is not a
	// component's: it promotes, drains and shuts down.
	ctl scl.Endpoint
	// replLive collects manager-replication counters (elections, log
	// appends, snapshots). With the liveness layer on it aliases
	// cfg.Liveness.Live; on a clean sequenced run it is runtime-private
	// so the counters stay observable. Nil when ManagerReplicas <= 1.
	replLive *stats.Liveness

	// tier collects the tiered-page-store and snapshot/fork counters
	// across every memory server (and standby).
	tier *stats.Tier

	// hbStop stops the memory servers' heartbeat goroutines at Close.
	hbStop chan struct{}
	hbWG   sync.WaitGroup

	nextSync   atomic.Uint32 // lock/barrier/cond id allocator
	nextThread atomic.Uint32

	closeOnce sync.Once
	closeErr  error
	// countErr is the first thread record of any Run that failed a
	// counter identity (stats.Thread.CheckPrefetch, CheckFills); Close
	// returns it.
	countErr error
}

// livenessEnabled reports whether the liveness layer is on.
func (rt *Runtime) livenessEnabled() bool { return rt.cfg.Liveness != nil }

// standbyEnabled reports whether warm-standby replication is on.
func (rt *Runtime) standbyEnabled() bool {
	return rt.cfg.Liveness != nil && rt.cfg.Liveness.Standby
}

// Liveness exposes the liveness counters (nil unless Liveness is
// configured).
func (rt *Runtime) Liveness() *stats.Liveness {
	if rt.cfg.Liveness == nil {
		return nil
	}
	return rt.cfg.Liveness.Live
}

// ReplLiveness exposes the manager-replication counters (elections,
// log entries, snapshots). With the liveness layer on it is the same
// object Liveness returns; on a clean sequenced run it is a
// runtime-private collector so the counters stay observable. Nil
// unless the manager is replicated.
func (rt *Runtime) ReplLiveness() *stats.Liveness { return rt.replLive }

// isPeerFailure reports whether err means the peer is gone (declared
// dead, crash-killed, retry budget exhausted, or a standby answering
// before promotion) — the failures that warrant a failover attempt.
func isPeerFailure(err error) bool {
	return errors.Is(err, proto.ErrPeerDied) ||
		errors.Is(err, scl.ErrUnreachable) ||
		errors.Is(err, proto.ErrNotPromoted)
}

// isMgrFailure reports whether err warrants a manager failover: the
// leader is gone, or it answered as a deposed leader / standby replica
// (CodeNotLeader — the manager-replication mirror of ErrNotPromoted).
func isMgrFailure(err error) bool {
	return isPeerFailure(err) || errors.Is(err, proto.ErrNotLeader)
}

var _ vm.VM = (*Runtime)(nil)

// New boots a Samhita instance: it creates the fabric, starts the
// manager and the memory servers, and returns the runtime ready to Run
// threads.
func New(cfg Config) (*Runtime, error) {
	cfg.fillDefaults()
	if err := cfg.Geo.Validate(); err != nil {
		return nil, err
	}
	if err := checkNodePlan(&cfg); err != nil {
		return nil, err
	}
	tierModel, ok := vtime.TierPreset(cfg.ColdPreset)
	if !ok {
		return nil, fmt.Errorf("core: unknown cold-tier preset %q", cfg.ColdPreset)
	}
	rt := &Runtime{cfg: cfg, transport: cfg.Transport, tier: cfg.Tier}
	if rt.tier == nil {
		rt.tier = new(stats.Tier)
	}
	if rt.transport == nil {
		rt.fabric = simnet.NewFabric(cfg.Link)
		if replicas := cfg.ManagerReplicas; replicas > 1 {
			base := cfg.Link
			isMgr := func(n scl.NodeID) bool {
				return n == managerNode ||
					(n >= firstMgrReplicaNode && n < firstMgrReplicaNode+scl.NodeID(replicas-1))
			}
			rt.fabric.SetLinkFn(func(src, dst scl.NodeID) vtime.LinkModel {
				if isMgr(src) && isMgr(dst) {
					// The replica group is co-located: replication round
					// trips ride intra-node links, not the fabric.
					return vtime.IntraNode
				}
				return base
			})
		}
		rt.transport = simTransport{fabric: rt.fabric}
	}
	// Clean simulated runs get deterministic message delivery: identical
	// configs then produce bit-identical virtual times and statistics.
	// Fault injection, retry timeouts and liveness heartbeats are driven
	// by real time, so runs using them keep the real-time fabric.
	if rt.fabric != nil && cfg.Faults == nil && cfg.Retry == nil && cfg.Liveness == nil {
		rt.fabric.Sequence()
	}
	rt.gate = simnet.NopGate()
	if rt.fabric != nil {
		rt.gate = rt.fabric.Gate()
	}
	// The caller's goroutine counts as runnable from New until Close.
	rt.gate.Resume()
	if cfg.Faults != nil {
		cfg.Faults.SetNetStats(cfg.Net)
		cfg.Faults.SetTrace(cfg.Trace)
	}
	ctl, err := rt.newEndpoint(controlNode)
	if err != nil {
		return nil, fmt.Errorf("core: control endpoint: %w", err)
	}
	rt.ctl = ctl
	rt.mgr = rt.managerRole()
	rt.homes = make([]*role, cfg.Geo.NumServers)
	for i := range rt.homes {
		rt.homes[i] = rt.homeRole(i)
	}
	mgrNodes := rt.mgr.cands
	if rt.livenessEnabled() {
		rt.hbStop = make(chan struct{})
	}
	// The manager sends reaped writers' obituaries to every home's
	// candidates — standbys included, since a fetch can park at a
	// promoted standby on a dead writer's never-shipped interval. A
	// thread is reaped when its lease runs out or its body panics.
	var dataNodes []scl.NodeID
	for _, h := range rt.homes {
		dataNodes = append(dataNodes, h.cands...)
	}
	for i := 0; i < cfg.ManagerReplicas; i++ {
		mgrEP, err := rt.newEndpoint(mgrNodes[i])
		if err != nil {
			return nil, fmt.Errorf("core: manager replica %d endpoint: %w", i, err)
		}
		mg := manager.New(mgrEP, cfg.Geo)
		mg.SetShards(cfg.ManagerShards)
		// Peer-to-peer lock handoff needs the sequenced fabric's
		// delivery order.
		mg.SetSequenced(rt.fabric != nil && rt.fabric.Sequenced())
		if rt.livenessEnabled() {
			// Every replica gets the lease table and data-node list: a
			// promoted follower must reap future deaths and re-broadcast
			// earlier terms' obituaries itself.
			mg.EnableLiveness(cfg.Liveness.Lease(), cfg.Liveness.Live, cfg.Trace)
		}
		mg.SetDataNodes(dataNodes)
		if cfg.ManagerReplicas > 1 {
			if rt.replLive == nil {
				if rt.livenessEnabled() {
					rt.replLive = cfg.Liveness.Live
				} else {
					rt.replLive = new(stats.Liveness)
				}
			}
			mg.SetReplication(manager.Replication{Self: i, Nodes: mgrNodes, Live: rt.replLive})
		}
		rt.mgrs = append(rt.mgrs, mg)
		spawn(rt, &rt.wg, (*manager.Manager).Run, mg)
	}
	agentAddr := func(writer uint32) scl.NodeID { return firstThreadNode + scl.NodeID(writer) }
	// A home's primary and its standby boot alike. The standby shards
	// identically, so the per-shard replication stream routes each
	// forwarded sub-batch wholly to the matching shard, preserving
	// per-page apply order, and has the same budget: after a promotion
	// the survivor must fit the same memory envelope.
	for i, h := range rt.homes {
		for c, node := range h.cands {
			ep, err := rt.newEndpoint(node)
			if err != nil {
				return nil, fmt.Errorf("core: %s candidate %d endpoint: %w", h.what, c, err)
			}
			srv := memserver.New(ep, i, cfg.Geo, cfg.CPU, agentAddr)
			srv.SetShards(cfg.ServerShards)
			srv.SetTier(cfg.HotBytes, tierModel, rt.tier)
			if rt.livenessEnabled() {
				srv.SetLiveness(cfg.Liveness.Live)
			}
			if c > 0 {
				srv.SetStandby(true)
				rt.standbys = append(rt.standbys, srv)
				spawn(rt, &rt.wg, (*memserver.Server).Run, srv)
				continue
			}
			if len(h.cands) > 1 {
				srv.SetReplica(h.cands[1])
			}
			rt.servers = append(rt.servers, srv)
			spawn(rt, &rt.wg, (*memserver.Server).Run, srv)
			if rt.livenessEnabled() {
				// The server heartbeats from its own endpoint, so a crash
				// that severs the node also silences its beats. Server
				// beats double as the manager's reap prodder.
				rt.hbWG.Add(1)
				go rt.heartbeat(ep, proto.Heartbeat{Member: uint32(i) + 1, Class: proto.MemberServer}, rt.hbStop, &rt.hbWG, false)
			}
		}
	}
	return rt, nil
}

// spawn runs f(a) on a goroutine of its own, counted runnable on the
// sequencer's ledger (simnet.Gate) from before it starts until f returns;
// then, if wg is set, it is marked done there. a travels in the
// goroutine's closure: with a method expression for f, one heap object.
// spawn and park are all that touch the ledger, apart from New's caller
// token; an answer one goroutine hands another goes through a
// simnet.Handoff.
func spawn[A any](rt *Runtime, wg *sync.WaitGroup, f func(A), a A) {
	if wg != nil {
		wg.Add(1)
	}
	rt.gate.Resume()
	go func() {
		if wg != nil {
			defer wg.Done()
		}
		defer rt.gate.Pause()
		f(a)
	}()
}

// park gives the caller's token up while wait blocks, so the sequencer
// can deliver what it waits for, and takes it back after.
func (rt *Runtime) park(wait func()) {
	rt.gate.Pause()
	wait()
	rt.gate.Resume()
}

// heartbeat posts member hb's beats from ep to the manager's holder, at
// once and then every period, until stop closes; then, if bye, a
// best-effort goodbye, so the manager removes the member instead of
// declaring it dead. One rule judges every beat. A post that failed
// terminally (this node was crash-killed) stops the beats: that silence
// is what the manager's lease table listens for. A transient failure, or
// a leader gone when replicas can take over, is ridden out, but beats to
// a lone manager give up after four failures in a row. Beats follow the
// book and never move it: the next beat reaches whichever replica a
// client's failover promoted.
func (rt *Runtime) heartbeat(ep scl.Endpoint, hb proto.Heartbeat, stop <-chan struct{}, wg *sync.WaitGroup, bye bool) {
	defer wg.Done()
	tick := time.NewTicker(rt.cfg.Liveness.HeartbeatEvery)
	defer tick.Stop()
	hb.Node = uint32(ep.ID())
	spare := len(rt.mgr.cands) > 1
	for fails := 0; ; {
		if _, err := ep.Post(rt.mgr.node(), &hb, 0); err == nil {
			fails = 0
		} else if !scl.IsTransient(err) && !(spare && rt.mgr.gone(err)) {
			return
		} else if fails++; fails > 3 && !spare {
			return
		}
		select {
		case <-stop:
			if bye {
				hb.Bye = true
				ep.Post(rt.mgr.node(), &hb, 0) // best-effort
			}
			return
		case <-tick.C:
		}
	}
}

// newEndpoint attaches one component endpoint, layering the fault
// injector (innermost, so injected faults look like transport failures)
// and the retry policy (outermost, so retries re-traverse the injector)
// over the raw transport endpoint.
func (rt *Runtime) newEndpoint(id scl.NodeID) (scl.Endpoint, error) {
	ep, err := rt.transport.NewEndpoint(id)
	if err != nil {
		return nil, err
	}
	if rt.cfg.Faults != nil {
		ep = rt.cfg.Faults.Wrap(ep)
	}
	if rt.cfg.Retry != nil {
		ep = scl.WithRetry(ep, *rt.cfg.Retry, rt.cfg.Net)
	}
	return ep, nil
}

// NetStats exposes the transport-robustness counters (nil unless Retry
// or Faults is configured).
func (rt *Runtime) NetStats() *stats.Net { return rt.cfg.Net }

// simTransport is the default transport: the in-process virtual-time
// fabric.
type simTransport struct{ fabric *simnet.Fabric }

func (s simTransport) NewEndpoint(id scl.NodeID) (scl.Endpoint, error) {
	return scl.NewSimEndpoint(s.fabric, id), nil
}

func (s simTransport) Close() error { return nil }

// Name implements vm.VM.
func (rt *Runtime) Name() string { return "samhita" }

// Config returns the runtime's (default-filled) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Manager exposes the current leader manager for stats inspection (the
// only manager, when replication is off).
func (rt *Runtime) Manager() *manager.Manager { return rt.mgrs[rt.mgr.cur.Load()] }

// Managers exposes every manager replica, by index.
func (rt *Runtime) Managers() []*manager.Manager { return rt.mgrs }

// Servers exposes the memory servers for stats inspection.
func (rt *Runtime) Servers() []*memserver.Server { return rt.servers }

// TierStats exposes the tiered-page-store and snapshot/fork counters,
// aggregated across every memory server and standby.
func (rt *Runtime) TierStats() *stats.Tier { return rt.tier }

// Fabric exposes the simulated fabric for traffic accounting; it is
// nil when the runtime uses a custom transport.
func (rt *Runtime) Fabric() *simnet.Fabric { return rt.fabric }

// Run implements vm.VM: it spawns p compute threads, registers them with
// the manager, executes body on each and gathers statistics.
func (rt *Runtime) Run(p int, body func(t vm.Thread)) (*stats.Run, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: need at least one thread, got %d", p)
	}
	threads := make([]*Thread, p)
	for i := 0; i < p; i++ {
		th, err := rt.newThread(i, p)
		if err != nil {
			return nil, err
		}
		threads[i] = th
	}
	// Register every thread before any body starts, so the manager's
	// notice-pruning horizon covers them all from the first release.
	for _, th := range threads {
		if err := th.register(); err != nil {
			return nil, fmt.Errorf("core: registering thread %d: %w", th.id, err)
		}
	}

	// Each thread gets a cache agent: a goroutine answering DiffPull
	// requests from homes while the thread computes (the runtime-side
	// helper thread of the real system). With liveness enabled each
	// thread also heartbeats from its own endpoint, so killing the
	// node silences the beats and the manager's lease table notices.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	for _, th := range threads {
		spawn(rt, nil, (*agent).run, &agent{t: th})
		if rt.livenessEnabled() {
			hbWG.Add(1)
			go rt.heartbeat(th.ep, proto.Heartbeat{Member: th.writer, Class: proto.MemberThread}, hbStop, &hbWG, true)
		}
	}

	var (
		wg       sync.WaitGroup
		reg      stats.Registry
		panicMu  sync.Mutex
		panicked error
	)
	for _, th := range threads {
		spawn(rt, &wg, func(th *Thread) {
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						if err, ok := r.(error); ok {
							panicked = fmt.Errorf("core: thread %d: %w", th.id, err)
						} else {
							panicked = fmt.Errorf("core: thread %d: %v", th.id, r)
						}
					}
					panicMu.Unlock()
					th.reportDeath()
				}
				th.finish()
				reg.Add(&th.st)
			}()
			body(th)
			th.joinLastRelease()
		}, th)
	}
	// The caller parks while the bodies run; on a sequenced fabric its
	// token must be released or delivery could stall with every thread
	// blocked on a pending message.
	rt.park(wg.Wait)
	for _, th := range threads {
		err := th.st.CheckPrefetch()
		if err == nil {
			err = th.st.CheckFills()
		}
		if err != nil && rt.countErr == nil {
			rt.countErr = fmt.Errorf("core: %w", err)
		}
	}
	// Retire the threads in three phases. (1) Flush any still-retained
	// owned diffs so the homes become self-sufficient. (2) Drain every
	// memory server (drainServers), so every queued batch — whose
	// processing may still pull from the threads' cache agents — is
	// done: a sequenced run waits for each home's port to quiesce, an
	// unsequenced one round-trips a ping through each FIFO inbox. (3)
	// Only then stop the heartbeats (each sends a goodbye so finished
	// threads leave the membership instead of timing out) and release
	// the endpoints, which stops the agents. Retirement failures of an
	// already-failed run must not mask the run's own error.
	for _, th := range threads {
		if err := th.flushOwned(); err != nil && panicked == nil {
			panicked = fmt.Errorf("core: thread %d: %w", th.id, err)
		}
	}
	if err := rt.drainServers(); err != nil && panicked == nil {
		panicked = err
	}
	close(hbStop)
	hbWG.Wait()
	for _, th := range threads {
		th.ep.Close()
	}
	if panicked != nil {
		return nil, panicked
	}
	return reg.Run(), nil
}

// newThread builds a thread handle placed on a compute node. The
// protocol writer id comes from a runtime-wide counter, never reused,
// so interval tags stay unique even when one Runtime executes several
// Run calls (each with thread ids restarting at zero).
func (rt *Runtime) newThread(id, p int) (*Thread, error) {
	seq := rt.nextThread.Add(1)
	ep, err := rt.newEndpoint(firstThreadNode + scl.NodeID(seq))
	if err != nil {
		return nil, fmt.Errorf("core: thread %d endpoint: %w", id, err)
	}
	th := &Thread{
		rt:    rt,
		id:    id,
		p:     p,
		node:  uint32(id / rt.cfg.ThreadsPerNode),
		ep:    ep,
		clock: vtime.NewClock(0),
	}
	th.st = stats.Thread{ID: id}
	th.writer = seq // writer 0 is reserved for "no writer"
	th.actor = fmt.Sprintf("thread %d", id)
	th.initCache()
	if len(rt.mgr.cands) > 1 {
		th.rel = new(release)
	}
	return th, nil
}

// drainServers round-trips a ping through every live home — following
// the address book, and failing over once if a primary died with
// batches we need drained (the promoted standby's inbox holds the
// replicated stream, so its ack is the drain).
func (rt *Runtime) drainServers() error {
	if rt.fabric != nil && rt.fabric.Sequenced() {
		// The ping idiom relies on FIFO inboxes; the sequenced fabric
		// delivers in virtual-arrival order, so a ping (cheap, early
		// arrival) would overtake the queued batches it is supposed to
		// prove drained. Wait for each home's stream to quiesce instead.
		for _, h := range rt.homes {
			// A server is one goroutine, so a quiesced port means a
			// fully drained server regardless of shard count.
			rt.fabric.Quiesce(h.node())
		}
		return nil
	}
	for i, h := range rt.homes {
		var ack proto.Ack
		if _, err := h.call(rt.ctl, &proto.Ping{}, &ack, 0); err != nil {
			return fmt.Errorf("core: draining memory server %d: %w", i, err)
		}
	}
	return nil
}

// NewMutex implements vm.VM. Lock state lives in the manager; the id is
// allocated here.
func (rt *Runtime) NewMutex() vm.Mutex { return &smhMutex{rt: rt, id: rt.nextSync.Add(1)} }

// NewBarrier implements vm.VM.
func (rt *Runtime) NewBarrier(n int) vm.Barrier {
	return &smhBarrier{rt: rt, id: rt.nextSync.Add(1), n: uint32(n)}
}

// NewCond implements vm.VM.
func (rt *Runtime) NewCond() vm.Cond { return &smhCond{rt: rt, id: rt.nextSync.Add(1)} }

// Close shuts the manager and memory servers (and any standbys) down.
// Components that already died a crash death — killed by a fault
// injector, declared dead by the lease table — are tolerated: their
// event loops have exited, so an undeliverable shutdown is expected.
func (rt *Runtime) Close() error {
	rt.closeOnce.Do(func() {
		if rt.hbStop != nil {
			close(rt.hbStop)
			rt.hbWG.Wait()
		}
		for _, r := range append([]*role{rt.mgr}, rt.homes...) {
			for _, dst := range r.cands {
				if _, err := rt.ctl.Post(dst, &shutdownMsg, 0); err != nil && !isPeerFailure(err) && rt.closeErr == nil {
					rt.closeErr = err
				}
			}
		}
		rt.park(rt.wg.Wait)
		rt.ctl.Close()
		if err := rt.transport.Close(); err != nil && rt.closeErr == nil {
			rt.closeErr = err
		}
		// Retire the caller token issued by New.
		rt.gate.Pause()
		if rt.closeErr == nil {
			rt.closeErr = rt.countErr
		}
	})
	return rt.closeErr
}
