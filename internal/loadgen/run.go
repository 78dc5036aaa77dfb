package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/edgecache"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Run executes one scenario: start the cluster, release the swarm on
// the arrival schedule, wait for every session to finish, and return
// the benchmark record. It blocks for the run's wall time (bounded by
// the arrival window plus the content length); cancel ctx to abort
// early, which fails the in-flight sessions but still reports. Run is
// RunSharded with a single shard driver.
//
// A scenario with churn enabled additionally runs the kill/restart
// driver alongside the swarm: edges go down mid-run and sessions are
// expected to complete via failover (see ChurnSpec and
// Cluster.KillEdge).
func Run(ctx context.Context, s Scenario, clients, edges int) (*Report, error) {
	return RunSharded(ctx, s, clients, edges, 1)
}

// RunSharded is Run with the client population split across a pool of
// independent shard drivers (ShardRun): shard i owns a contiguous
// ID range, its own arrival wheel, its own SDK and HTTP connection
// pool, and its own result buffer, so tens of thousands of concurrent
// sessions never serialize on harness-side shared state. Which client
// runs which session is decided before sharding from the scenario seed
// alone, so the same seed produces the same session population — and
// the same completion/failure totals — at any shard count; only the
// measured timings differ. Per-shard timings are merged into one
// record (MergeShardRuns) and reported in the record's shards block.
func RunSharded(ctx context.Context, s Scenario, clients, edges, shards int) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if clients < 1 {
		return nil, fmt.Errorf("loadgen: need at least one client, got %d", clients)
	}
	if shards < 1 {
		return nil, fmt.Errorf("loadgen: need at least one shard, got %d", shards)
	}
	if shards > clients {
		shards = clients
	}
	offsets, err := s.Arrival.Offsets(clients, s.Seed)
	if err != nil {
		return nil, err
	}
	window := offsets[len(offsets)-1]
	// Live broadcasts must outlive the last joiner by a full session.
	liveFor := window + s.AssetDuration + 2*time.Second

	cluster, err := StartCluster(ctx, s, edges, liveFor)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	if err := cluster.AwaitReady(10 * time.Second); err != nil {
		return nil, err
	}

	// Draw each client's workload kind up front, deterministically.
	mixRng := rand.New(rand.NewSource(s.Seed))
	kinds := make([]Kind, clients)
	for i := range kinds {
		kinds[i] = s.pickKind(mixRng)
	}

	// Registry metrics are windowed through the cluster (not a raw
	// snapshot) because registry churn can replace the instance mid-run.
	cluster.MarkRegistryWindow()
	originPre := cluster.Origin.Metrics().Snapshot()
	edgePre := make([]metrics.Snapshot, len(cluster.Edges))
	for i, e := range cluster.Edges {
		edgePre[i] = e.Server.Metrics().Snapshot()
	}

	clock := s.clock()
	t0 := clock.Now()
	// The Mallocs delta around the swarm (cluster setup and content
	// encoding excluded) feeds the record's perf.allocsPerPacket — the
	// allocation-regression signal for the zero-copy serving path.
	var memPre runtime.MemStats
	runtime.ReadMemStats(&memPre)
	churnCtx, stopChurn := context.WithCancel(ctx)
	var churnWG sync.WaitGroup
	if s.Churn.Enabled() {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			runChurn(churnCtx, clock, cluster, s.Churn, t0, edges)
		}()
	}
	// The shard pool: each driver owns a contiguous ID range with its
	// own arrival wheel, SDK, and result buffer (see ShardRun). kinds
	// and offsets were drawn above, before the split, so the session
	// population is shard-count-invariant.
	bounds := shardBounds(clients, shards)
	runs := make([]ShardRun, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = cluster.runShard(ctx, i, bounds[i], bounds[i+1], kinds, offsets, t0)
		}(i)
	}
	wg.Wait()
	stopChurn()
	churnWG.Wait()
	wall := clock.Now().Sub(t0)
	var memPost runtime.MemStats
	runtime.ReadMemStats(&memPost)
	allocs := memPost.Mallocs - memPre.Mallocs

	regDelta := cluster.RegistryWindowDelta()
	originDelta := cluster.Origin.Metrics().Snapshot().Delta(originPre)
	edgeDeltas := make([]metrics.Snapshot, len(cluster.Edges))
	edgeCaches := make([][]edgecache.AssetStats, len(cluster.Edges))
	for i, e := range cluster.Edges {
		edgeDeltas[i] = e.Server.Metrics().Snapshot().Delta(edgePre[i])
		edgeCaches[i] = e.CacheStats()
	}

	results, shardInfos := MergeShardRuns(runs)
	return buildReport(s, clients, edges, wall, allocs, results, regDelta, originDelta,
		cluster.EdgeIDs, edgeDeltas, edgeCaches, shardInfos, cluster.RegistryRestarts()), nil
}

// runChurn executes a scenario's kill/restart schedule against the live
// cluster: kill k fires at t0 + FirstKill + k·Every, victims rotate
// round-robin, and each killed edge restarts RestartAfter later before
// the next kill is considered — the driver is sequential, so at most
// one edge is ever down and the registry always has a failover target.
// A RestartAfter of zero leaves victims down for the rest of the run.
//
// With KillRegistry set, the victim is the registry itself instead:
// each kill takes the control plane down for RestartAfter, then brings
// up a fresh registry restored from the durable catalog snapshot
// (Scenario validation guarantees RestartAfter is positive here — a
// run cannot end registry-less).
func runChurn(ctx context.Context, clock vclock.Clock, c *Cluster, spec ChurnSpec, t0 time.Time, edges int) {
	for k := 0; k < spec.Kills; k++ {
		due := t0.Add(spec.FirstKill + time.Duration(k)*spec.Every)
		if !vclock.SleepCtx(ctx, clock, due.Sub(clock.Now())) {
			return
		}
		if spec.KillRegistry {
			if err := c.KillRegistry(); err != nil {
				continue
			}
			alive := vclock.SleepCtx(ctx, clock, spec.RestartAfter)
			// Restart even on cancellation so the final metric snapshots
			// and teardown have a registry to talk to.
			_ = c.RestartRegistry()
			if !alive {
				return
			}
			continue
		}
		victim := k % edges
		if err := c.KillEdge(victim); err != nil {
			continue // already down (restartless schedule lapped itself)
		}
		if spec.RestartAfter <= 0 {
			continue
		}
		alive := vclock.SleepCtx(ctx, clock, spec.RestartAfter)
		// Restart even on cancellation so the cluster is whole for the
		// final metric snapshots and teardown.
		_ = c.RestartEdge(victim)
		if !alive {
			return
		}
	}
}
