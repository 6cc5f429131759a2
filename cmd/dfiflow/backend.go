package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// backend is everything run needs to know about the transport under the
// flow: a cluster, a registry on the same clock, and a way to run a set
// of named bodies to completion. Nothing above it knows which one it is.
type backend struct {
	tpt  transport.Transport
	reg  flowRegistry
	node func(i int) transport.Endpoint

	// spawn starts body on a context of its own; wait runs every spawned
	// body to completion and returns the kernel's error when the
	// simulation cannot go on (deadlock, deadline). abort ends wait
	// although bodies are still blocked — on a flow that will never be
	// published.
	spawn func(name string, body func(transport.Ctx))
	wait  func() error
	abort func()

	// clock, via and rate word the summary.
	clock string // "virtual" | "wall"
	via   string // "" | " over chan transport"
	rate  string // what the sender bandwidth is measured against

	wireOverhead int // per-message framing bytes for the recorder's wire estimate
}

// newRegistry builds the registry the flags ask for — standalone,
// replicated, sharded, or sharded over replicated groups — out of mk,
// the backend's maker of a standalone registry on its clock.
func newRegistry(mk func() *registry.Registry, shards int, rcfg registry.ReplicaConfig) (flowRegistry, error) {
	one := func() (*registry.Registry, error) {
		r := mk()
		if rcfg.Replicas > 0 {
			return r.Replicate(rcfg)
		}
		r.UseFaults(rcfg.Faults)
		return r, nil
	}
	var reg flowRegistry
	var err error
	if shards > 1 {
		reg, err = registry.ShardedOf(shards, one)
	} else {
		reg, err = one()
	}
	if err != nil { // only Replicate can fail, on the replica count
		return nil, fmt.Errorf("-replicas: %v", err)
	}
	return reg, nil
}

// newFabricBackend builds the deterministic simulation from the flags
// only it can honour (desOnlyFlags says why for each): a seeded kernel
// and the calibrated fabric with its loss model and fault plan.
func newFabricBackend(nodes int, seed int64, loss float64, faults string, shards int, rcfg registry.ReplicaConfig) (*backend, error) {
	if loss < 0 || loss > 1 {
		return nil, fmt.Errorf("-loss %v: want a probability in [0, 1]", loss)
	}
	k := sim.New(seed)
	k.Deadline = time.Hour
	fcfg := fabric.DefaultConfig()
	fcfg.MulticastLoss = loss
	if faults != "" {
		var err error
		if fcfg.Faults, rcfg.Faults, err = parseFaults(faults, nodes); err != nil {
			return nil, fmt.Errorf("-faults: %v", err)
		}
	}
	cluster := fabric.NewCluster(k, nodes, fcfg)
	b := &backend{
		tpt:  cluster,
		node: func(i int) transport.Endpoint { return cluster.Node(i) },
		spawn: func(name string, body func(transport.Ctx)) {
			k.Spawn(name, func(p *sim.Proc) { body(p) })
		},
		wait:  k.Run,
		abort: func() {}, // the kernel sees for itself that what is left is stuck
		clock: "virtual",
		rate:  fmt.Sprintf("link speed %.2f GiB/s", fcfg.LinkBandwidth/(1<<30)),

		wireOverhead: fcfg.WireOverheadBytes,
	}
	var err error
	b.reg, err = newRegistry(func() *registry.Registry { return registry.New(k) }, shards, rcfg)
	return b, err
}

// parseFaults builds the fabric's fault plan and the registry's fault
// knobs (the reg-* keys) from a comma-separated key=value spec.
// Probabilities: drop-write, drop-read, drop-send, drop-atomic, dup,
// reorder, reg-drop. Durations: delay, jitter, reg-delay, reg-jitter,
// reg-crash-master. Crashes: crash=NODE@TIME (repeatable), NODE below
// nodes. A probability outside [0, 1], a negative duration or a node out
// of range is an error naming the field.
func parseFaults(spec string, nodes int) (*fabric.FaultPlan, *registry.Faults, error) {
	fp, rf := &fabric.FaultPlan{}, &registry.Faults{}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, nil, fmt.Errorf("%q: want key=value", field)
		}
		prob := func() (float64, error) {
			p, err := strconv.ParseFloat(val, 64)
			if err == nil && !(p >= 0 && p <= 1) {
				err = fmt.Errorf("probability %v outside [0, 1]", p)
			}
			return p, err
		}
		dur := func(s string) (time.Duration, error) {
			d, err := time.ParseDuration(s)
			if err == nil && d < 0 {
				err = fmt.Errorf("negative duration %v", d)
			}
			return d, err
		}
		var err error
		switch key {
		case "drop-write":
			fp.DropWrite, err = prob()
		case "drop-read":
			fp.DropRead, err = prob()
		case "drop-send":
			fp.DropSend, err = prob()
		case "drop-atomic":
			fp.DropAtomic, err = prob()
		case "dup":
			fp.Duplicate, err = prob()
		case "reorder":
			fp.Reorder, err = prob()
		case "delay":
			fp.Delay, err = dur(val)
		case "jitter":
			fp.DelayJitter, err = dur(val)
		case "reg-drop":
			rf.Drop, err = prob()
		case "reg-delay":
			rf.Delay, err = dur(val)
		case "reg-jitter":
			rf.Jitter, err = dur(val)
		case "reg-crash-master":
			rf.CrashMaster, err = dur(val)
		case "crash":
			node, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, nil, fmt.Errorf("%q: want crash=NODE@TIME", field)
			}
			var id int
			if id, err = strconv.Atoi(node); err != nil {
				break
			}
			if id < 0 || id >= nodes {
				err = fmt.Errorf("node %d outside the %d-node cluster", id, nodes)
				break
			}
			var t time.Duration
			if t, err = dur(at); err != nil {
				break
			}
			fp.CrashNode(id, t)
		default:
			return nil, nil, fmt.Errorf("unknown fault key %q", key)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%q: %v", field, err)
		}
	}
	return fp, rf, nil
}
