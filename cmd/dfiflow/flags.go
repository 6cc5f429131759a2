package main

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/scenario"
)

// desOnlyFlags maps the dfiflow flags -transport=chan cannot honour —
// each is what is being simulated — to the reason. Everything else —
// fleets, partitioning, leases, evictions, rejoins, recovery timeouts,
// combiner, multicast and ordered flows, the registry variants, the ops
// plane — is the same program on either clock. Each flag is rejected by
// name instead of being silently ignored.
var desOnlyFlags = map[string]string{
	"faults": "fault injection hooks into the simulated fabric",
	"seed":   "the chan backend runs on wall clock, not a seeded DES",
	"loss":   "multicast loss is injected by the simulated switch",
}

// rejected cross-checks the flags set on the command line against a
// table of flags the chosen mode cannot honour, before any machinery
// spins up: one line per offender, naming it and the table's reason
// (format takes the two).
func rejected(fs *flag.FlagSet, table map[string]string, format string) error {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if why, ok := table[f.Name]; ok {
			bad = append(bad, fmt.Sprintf(format, f.Name, why))
		}
	})
	if len(bad) == 0 {
		return nil
	}
	return errors.New(strings.Join(bad, "\n\t"))
}

// parseEvictions parses the -evict and -rejoin flags: comma-separated
// TARGET@TIME, TARGET below targets.
func parseEvictions(spec string, targets int) ([]scenario.Eviction, error) {
	if spec == "" {
		return nil, nil
	}
	var out []scenario.Eviction
	for _, field := range strings.Split(spec, ",") {
		idx, at, ok := strings.Cut(strings.TrimSpace(field), "@")
		if !ok {
			return nil, fmt.Errorf("%q: want TARGET@TIME", field)
		}
		target, err := strconv.Atoi(idx)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", field, err)
		}
		if target < 0 || target >= targets {
			return nil, fmt.Errorf("%q: target %d outside the %d-target flow", field, target, targets)
		}
		t, err := time.ParseDuration(at)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", field, err)
		}
		out = append(out, scenario.Eviction{Target: target, At: t})
	}
	return out, nil
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
