// Package chaos is the repository's fault-injection harness: a
// partition-drop TCP proxy that makes a live server look crashed. The
// coordinator-kill failover e2e and the HA tests are built on it.
//
// Like its parent package testutil, chaos is imported only from _test.go
// files; nothing here may appear in a production dependency chain.
// Production code stays chaos-free — tests inject faults from the
// outside (a proxy in front of a server, a test hook the code under test
// exposes), never by threading harness types through production
// constructors.
package chaos

import (
	"fmt"
	"io"
	"net"
	"net/url"
	"sync"
)

// Proxy is a TCP pass-through in front of one backend that a test can
// partition at will. Drop severs every live connection and refuses new
// ones (dials through the proxy fail like a dead host, not like an HTTP
// error), Restore heals the partition, Close tears the proxy down. This
// is how the failover e2e "kills" a coordinator that is in fact still
// running: clients pointed at the proxy observe exactly what they would
// observe if the process had died.
type Proxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	dropped bool
	closed  bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// NewProxy starts a proxy in front of target, which may be a host:port
// or an http:// URL (httptest server URLs paste straight in).
func NewProxy(target string) (*Proxy, error) {
	if u, err := url.Parse(target); err == nil && u.Host != "" {
		target = u.Host
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// URL returns the proxy's base URL ("http://127.0.0.1:port").
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// Addr returns the proxy's host:port.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Drop partitions the backend: live connections are severed and new
// dials are accepted then immediately closed, so in-flight requests fail
// with transport errors exactly as against a crashed host.
func (p *Proxy) Drop() {
	p.mu.Lock()
	p.dropped = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Restore heals the partition; new connections flow again.
func (p *Proxy) Restore() {
	p.mu.Lock()
	p.dropped = false
	p.mu.Unlock()
}

// Dropped reports whether the proxy is currently partitioned.
func (p *Proxy) Dropped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Close shuts the proxy down and waits for its goroutines.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed || p.dropped {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.mu.Unlock()
		backend, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.track(conn)
		p.track(backend)
		p.wg.Add(2)
		go p.pipe(conn, backend)
		go p.pipe(backend, conn)
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src)
	// Half-close is enough to unstick the peer copy; severing both ends
	// keeps the bookkeeping simple and matches a crashed host.
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}
