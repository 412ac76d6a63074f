package main

import (
	"errors"
	"fmt"
	"net"

	"leap"
	"leap/internal/core"
	"leap/internal/prefetch"
	"leap/internal/remote"
)

// The host copies the private cluster leap.Open builds by itself: three
// agents, 1024-page slabs, two replicas, queue depth 8, seed 42.
const (
	clusterAgents = 3
	slabPages     = 1024
	replicas      = 2
	hostSeed      = 42
	memShards     = 2
)

// env is one opened runtime over its cluster, populated and flushed.
type env struct {
	spec      *spec
	mem       *leap.Memory
	host      *remote.Host
	agents    []*remote.Agent
	listeners []net.Listener
	served    []chan error
	// transports are closed by the host once it exists.
	transports []remote.Transport
	clients    []*leap.MemoryClient
}

// wrappers are the delegating layers a traced run installs; the zero value
// installs none.
type wrappers struct {
	transport  func(remote.Transport) remote.Transport
	prefetcher func(prefetch.Prefetcher) prefetch.Prefetcher
}

// setup builds the cluster, opens the runtime over it and populates every
// client's range with version-0 images. On error everything built so far
// is released.
func setup(s *spec, im *imager, w wrappers) (_ *env, err error) {
	e := &env{spec: s}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	transports := make([]remote.Transport, clusterAgents)
	for i := range transports {
		a := remote.NewAgent(slabPages, 0)
		e.agents = append(e.agents, a)
		var tr remote.Transport = remote.NewInProc(a)
		if s.tcp {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("listen: %w", err)
			}
			done := make(chan error, 1)
			go func() { done <- a.Serve(l) }()
			e.listeners = append(e.listeners, l)
			e.served = append(e.served, done)
			tcp, err := remote.DialTCP(l.Addr().String())
			if err != nil {
				return nil, err
			}
			tr = tcp
		}
		e.transports = append(e.transports, tr)
		if w.transport != nil {
			tr = w.transport(tr)
		}
		transports[i] = tr
	}
	e.host, err = remote.NewHost(remote.HostConfig{
		SlabPages:  slabPages,
		Replicas:   replicas,
		QueueDepth: remote.DefaultQueueDepth,
		Seed:       hostSeed,
	}, transports)
	if err != nil {
		return nil, err
	}
	opts := []leap.Option{
		leap.WithRemoteHost(e.host),
		leap.WithShards(memShards),
		leap.WithCacheCapacity(s.cachePages),
	}
	if s.ztierBytes > 0 {
		opts = append(opts, leap.WithCompressedTier(s.ztierBytes))
	}
	if w.prefetcher != nil {
		opts = append(opts, leap.WithPrefetcherFactory(func() leap.Prefetcher {
			return w.prefetcher(prefetch.NewLeap(core.Config{}))
		}))
	}
	if e.mem, err = leap.Open(opts...); err != nil {
		return nil, err
	}
	e.mem.SetRecording(false)
	if err := populate(e.mem, s, im); err != nil {
		return nil, err
	}
	if err := e.mem.Flush(); err != nil {
		return nil, fmt.Errorf("flush after populate: %w", err)
	}
	for c := 0; c < s.clients(); c++ {
		e.clients = append(e.clients, e.mem.Client(c+1))
	}
	return e, nil
}

// populate writes the version-0 image of every page, alternating between
// clients so that neither starts out with more of its pages local: cold
// ranges first, so that the hot ranges end up resident.
func populate(mem *leap.Memory, s *spec, im *imager) error {
	buf := make([]byte, pageSize)
	write := func(from, to int64) error {
		for p := from; p < to; p++ {
			for c := 0; c < s.clients(); c++ {
				pg := int64(c)*s.span() + p
				im.fillPage(buf, pg, s.recSize)
				if _, err := mem.WriteAt(buf, pg*pageSize); err != nil {
					return fmt.Errorf("populate page %d: %w", pg, err)
				}
			}
		}
		return nil
	}
	if err := write(s.pages, s.span()); err != nil {
		return err
	}
	return write(0, s.pages)
}

// close releases the runtime, the host, its transports and the agents'
// listeners, and waits for every accept loop to return.
func (e *env) close() error {
	var errs []error
	if e.mem != nil {
		errs = append(errs, e.mem.Close())
	}
	if e.host != nil {
		errs = append(errs, e.host.Close())
	} else {
		for _, tr := range e.transports {
			tr.Close()
		}
	}
	for i, l := range e.listeners {
		l.Close()
		<-e.served[i] // Serve returns once its listener is closed
	}
	return errors.Join(errs...)
}

// agentOps sums the agents' cumulative page operations.
func (e *env) agentOps() int64 {
	var n int64
	for _, a := range e.agents {
		r, w := a.Ops()
		n += r + w
	}
	return n
}

// slabBytes sums the memory the agents' mapped slabs hold.
func (e *env) slabBytes() uint64 {
	var n uint64
	for _, a := range e.agents {
		n += uint64(a.SlabCount()) * slabPages * pageSize
	}
	return n
}
