package main

import (
	"fmt"

	"purity/internal/core"
	"purity/internal/sim"
)

// prefillChunk is the write size of the in-process prefill.
const prefillChunk = 256 << 10

// arrayConfig is the configuration purity-server ships with: 11 drives of
// 256 MiB, inline dedup and compression, 4 commit lanes.
func arrayConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Shelf.Drives = 11
	cfg.Shelf.DriveConfig.Capacity = 256 << 20
	cfg.CommitLanes = 4
	return cfg
}

// populate creates the workload's volumes on a freshly formatted array and
// prefills them in-process from sim time 0: data volumes for oltp and
// overwrite, a golden image snapshotted and cloned for vdi. It returns the
// oracle for the array and the sim time the prefill reached.
func populate(a *core.Array, s spec, seed uint64) (*oracle, sim.Time, error) {
	o := newOracle(s, seed)
	now := sim.Time(0)
	prefill := func(vol core.VolumeID, v int) error {
		buf := make([]byte, prefillChunk)
		per := int64(prefillChunk / s.ioSize)
		for u := int64(0); u < o.units; u += per {
			for k := int64(0); k < per; k++ {
				o.fill(buf[k*int64(s.ioSize):(k+1)*int64(s.ioSize)], v, u+k, 0)
			}
			done, err := a.WriteAt(now, vol, u*int64(s.ioSize), buf)
			if err != nil {
				return fmt.Errorf("prefill volume %d: %w", vol, err)
			}
			now = done
		}
		return nil
	}
	if s.golden {
		g, done, err := a.CreateVolume(now, "golden", s.volBytes)
		if err != nil {
			return nil, now, err
		}
		now = done
		o.golden = g
		// The golden image is unit-for-unit what a clone reads before its
		// first overwrite (write id 0).
		if err := prefill(g, 0); err != nil {
			return nil, now, err
		}
		snap, done, err := a.Snapshot(now, g, "golden-snap")
		if err != nil {
			return nil, now, err
		}
		now = done
		for i := 0; i < s.volumes; i++ {
			c, done, err := a.Clone(now, snap, fmt.Sprintf("clone%d", i))
			if err != nil {
				return nil, now, err
			}
			now = done
			o.vols = append(o.vols, c)
		}
		return o, now, nil
	}
	for i := 0; i < s.volumes; i++ {
		vol, done, err := a.CreateVolume(now, fmt.Sprintf("vol%d", i), s.volBytes)
		if err != nil {
			return nil, now, err
		}
		now = done
		o.vols = append(o.vols, vol)
	}
	for i, vol := range o.vols {
		if err := prefill(vol, i); err != nil {
			return nil, now, err
		}
	}
	return o, now, nil
}
