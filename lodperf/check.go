package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/proto"
)

// maxListed bounds how many failures of one kind the gate reports.
const maxListed = 5

// checkWindow is the correctness gate. It runs after the timed window
// and returns one line per failure:
//   - a viewer session, publish or redirect probe failed;
//   - a full-length VOD replay delivered fewer video frames than its
//     lecture has, or any session other than a seek showed a broken
//     frame (a seek starts mid-GOP, so broken frames are expected there);
//   - an edge ended behind the last acknowledged catalog version;
//   - for workloads that restart the registry, an acknowledged publish
//     is missing at its acknowledged revision from the restored catalog.
func checkWindow(ctx context.Context, c *loadgen.Cluster, win *window, wantFrames int, acked *ackLog) []string {
	var out []string
	listed := map[string]int{}
	fail := func(kind, format string, args ...any) {
		listed[kind]++
		if listed[kind] <= maxListed {
			out = append(out, kind+": "+fmt.Sprintf(format, args...))
		}
	}
	for i, v := range win.viewers {
		r := v.res
		switch {
		case r.Err != "":
			fail("viewer failed", "viewer %d (%s): %s", i, v.kind, r.Err)
		case v.kind == loadgen.KindVOD && r.Failovers == 0 && r.VideoFrames < wantFrames:
			fail("short replay", "viewer %d: %d of %d video frames", i, r.VideoFrames, wantFrames)
		case v.kind != loadgen.KindSeek && r.BrokenFrames > 0:
			fail("broken frames", "viewer %d (%s): %d broken frames", i, v.kind, r.BrokenFrames)
		}
	}
	for i, p := range win.publishes {
		if p.err != nil {
			fail("publish failed", "publish %d of %s: %v", i, p.name, p.err)
		}
	}
	for i, p := range win.probes {
		if p.err != nil {
			fail("probe failed", "probe %d: %v", i, p.err)
		}
	}
	if err := awaitEdges(ctx, c, acked.max, 3*time.Second); err != nil {
		fail("catalog behind", "%v", err)
	}
	if win.cfg.w.restartRegistry {
		if err := checkRestoredCatalog(c, acked); err != nil {
			fail("catalog not durable", "%v", err)
		}
	}
	sort.Strings(out)
	var more []string
	for kind, n := range listed {
		if n > maxListed {
			more = append(more, fmt.Sprintf("%s: %d more", kind, n-maxListed))
		}
	}
	sort.Strings(more)
	return append(out, more...)
}

// checkRestoredCatalog kills and restarts the registry, then looks for
// every acknowledged publish, at its acknowledged revision, in the
// catalog the new instance restored from disk.
func checkRestoredCatalog(c *loadgen.Cluster, acked *ackLog) error {
	if err := c.KillRegistry(); err != nil {
		return fmt.Errorf("kill registry: %w", err)
	}
	if err := c.RestartRegistry(); err != nil {
		return fmt.Errorf("restart registry: %w", err)
	}
	var cat proto.Catalog
	if err := json.Unmarshal(c.Registry().CatalogJSON(), &cat); err != nil {
		return fmt.Errorf("restored catalog: %w", err)
	}
	have := make(map[string]uint64, len(cat.Assets))
	for _, a := range cat.Assets {
		have[a.Name] = a.Rev
	}
	acked.mu.Lock()
	defer acked.mu.Unlock()
	var lost []string
	for name, rev := range acked.rev {
		if have[name] != rev {
			lost = append(lost, fmt.Sprintf("%s acknowledged at rev %d, restored at %d", name, rev, have[name]))
		}
	}
	if len(lost) > 0 {
		sort.Strings(lost)
		return fmt.Errorf("%d of %d acknowledged publishes lost, e.g. %s", len(lost), len(acked.rev), lost[0])
	}
	return nil
}
