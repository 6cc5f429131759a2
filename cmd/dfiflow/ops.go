package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/scenario"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// opsFlags are the ops-plane flags, the same on every transport.
type opsFlags struct {
	metricsAddr string
	linger      time.Duration
	eventsCap   int
	eventsOut   string
}

// opsPlane is the live-introspection wiring of one run: the metrics
// registry every layer publishes into, the structured event log the
// registry (and through it every endpoint) emits into, and the HTTP
// endpoint serving both plus the registry's /status. All nil when
// neither -metrics-addr nor -events-out was given.
type opsPlane struct {
	flags  opsFlags
	m      *metrics.Registry
	events *metrics.EventLog
	srv    *metrics.Server
	pool   *sharedring.Pool // the shared-ring pool of a -shared run
}

// startOps wires the ops plane onto reg before any endpoint opens (so
// endpoints inherit the event sink) and starts serving. pool is the
// shared-ring pool of a -shared run, nil otherwise.
func startOps(f opsFlags, reg scenario.Registry, rec *transport.Recorder, pool *sharedring.Pool, stdout io.Writer) (*opsPlane, error) {
	o := &opsPlane{flags: f, pool: pool}
	if f.metricsAddr == "" && f.eventsOut == "" {
		return o, nil
	}
	o.m = metrics.NewRegistry()
	o.events = metrics.NewEventLog(f.eventsCap)
	reg.SetEventSink(o.events)
	reg.PublishMetrics(o.m)
	if rec != nil {
		rec.PublishMetrics(o.m)
	}
	if f.metricsAddr != "" {
		srv, err := metrics.Serve(f.metricsAddr, o.m, func() any { return reg.Status() }, o.events)
		if err != nil {
			return nil, err
		}
		o.srv = srv
		fmt.Fprintf(stdout, "metrics: serving on http://%s (/metrics /status /events)\n", srv.Addr())
	}
	return o, nil
}

// publish registers an opened endpoint's series; on -shared runs it
// also re-registers the pool's, which is idempotent and picks up ring
// and tenant series as links come into existence.
func (o *opsPlane) publish(ep scenario.Publisher) {
	if o.m == nil {
		return
	}
	ep.PublishMetrics(o.m)
	if o.pool != nil {
		o.pool.PublishMetrics(o.m)
	}
}

// finish ends the run's ops plane: the emitted-events line, the
// -events-out file, and the -linger window for final scrapes. It
// returns the exit code the ops plane asks for (1 when the event file
// could not be written).
func (o *opsPlane) finish(stdout, stderr io.Writer) int {
	if o.srv != nil {
		defer o.srv.Close()
	}
	if o.events != nil {
		fmt.Fprintf(stdout, "events: %d emitted\n", o.events.Total())
	}
	if o.flags.eventsOut != "" {
		f, err := os.Create(o.flags.eventsOut)
		if err != nil {
			fmt.Fprintf(stderr, "dfiflow: -events-out: %v\n", err)
			return 1
		}
		written, dropped, err := o.events.WriteJSONL(f)
		if err = errors.Join(err, f.Close()); err != nil {
			fmt.Fprintf(stderr, "dfiflow: -events-out: write: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "events: wrote %d to %s (%d dropped by ring eviction)\n", written, o.flags.eventsOut, dropped)
	}
	if o.srv != nil && o.flags.linger > 0 {
		fmt.Fprintf(stdout, "metrics: lingering %v for scrapes\n", o.flags.linger)
		time.Sleep(o.flags.linger)
	}
	return 0
}
