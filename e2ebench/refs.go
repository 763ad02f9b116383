package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"pvcsim/internal/core"
	"pvcsim/internal/obs"
	"pvcsim/internal/runner"
	"pvcsim/internal/sweep"
	"pvcsim/internal/topology"
)

// generateRefs writes the reference files every op is checked against:
// the artifact digests, the cluster cells' exact simulated values, and
// the digest of each service spec's metrics export. Run it only at a
// commit whose outputs are known good.
func generateRefs(ctx context.Context, o options) error {
	dir := filepath.Join(o.tmp, "artifacts")
	if err := core.NewStudy().WriteAllArtifacts(dir); err != nil {
		return err
	}
	digests, _, err := digestDir(dir)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(o.refs, "paper-artifacts.json"), digests); err != nil {
		return err
	}

	cells, err := expandClusterCells()
	if err != nil {
		return err
	}
	values := map[string]map[string]float64{}
	for _, res := range runner.New(1).Run(ctx, cells) {
		if res.Err != nil {
			return res.Err
		}
		values[clusterKey(res.Name, res.System)] = clusterValues(res.Result)
	}
	if err := writeJSON(filepath.Join(o.refs, "cluster-sweeps.json"), values); err != nil {
		return err
	}

	// pvcd exports a run's metrics from a fresh runner observed by a
	// fresh collector; doing the same in process gives the bytes the
	// service must return.
	metrics := map[string]string{}
	reg := sweep.DefaultRegistry()
	for _, spec := range append(append([]serviceSpec(nil), runSpecs...), repeatSpecs...) {
		w, ok := reg.Get(spec.Workload)
		if !ok {
			return fmt.Errorf("workload %q not registered", spec.Workload)
		}
		var cells []runner.Cell
		for _, name := range spec.Systems {
			sys, err := topology.ParseSystem(name)
			if err != nil {
				return err
			}
			cells = append(cells, runner.Cell{System: sys, Workload: w})
		}
		r := runner.New(1)
		col := obs.NewCollector()
		r.Observe(col)
		for _, res := range r.Run(ctx, cells) {
			if res.Err != nil {
				return res.Err
			}
		}
		var buf bytes.Buffer
		if err := col.Report().WriteMetrics(&buf); err != nil {
			return err
		}
		sum := sha256.Sum256(buf.Bytes())
		metrics[spec.key()] = hex.EncodeToString(sum[:])
	}
	return writeJSON(filepath.Join(o.refs, "service-mix.json"), metrics)
}
