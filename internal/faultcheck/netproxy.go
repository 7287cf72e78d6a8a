package faultcheck

import (
	"io"
	"net"
	"sync"
	"time"
)

// ConnPlan scripts the faults injected into one proxied TCP connection.
// The zero value proxies cleanly.
type ConnPlan struct {
	// Delay stalls the connection before any byte is forwarded — a slow
	// network, not a broken one.
	Delay time.Duration
	// CutAfterRequestBytes kills the connection once this many
	// client-to-server bytes have been forwarded: the request dies on the
	// wire and the server sees a truncated stream. Zero disables the cut.
	CutAfterRequestBytes int64
	// DropResponse forwards the client's bytes intact, waits for the
	// server's first response bytes, then kills the connection without
	// delivering them — the ambiguous failure where the mutation WAS
	// applied but the client cannot know. This is the case that separates
	// at-most-once from exactly-once.
	DropResponse bool
	// Reset ends a killed connection with an RST (SO_LINGER 0) instead of
	// an orderly FIN.
	Reset bool
}

// Proxy is a TCP proxy that injects connection-level faults between an
// HTTP client and a backend, per a scripted plan. The backend address can
// be swapped mid-flight (SetTarget) to model a crashed-and-restarted
// server listening on a new port.
type Proxy struct {
	ln net.Listener

	mu     sync.Mutex
	target string
	next   int
	conns  map[net.Conn]struct{}

	plan   func(connIndex int) ConnPlan
	closed chan struct{}
	wg     sync.WaitGroup
}

// NewProxy listens on an ephemeral local port and forwards connections to
// target, applying plan(i) to the i-th accepted connection (0-based). A
// nil plan proxies everything cleanly.
func NewProxy(target string, plan func(connIndex int) ConnPlan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if plan == nil {
		plan = func(int) ConnPlan { return ConnPlan{} }
	}
	p := &Proxy{ln: ln, target: target, plan: plan, conns: make(map[net.Conn]struct{}), closed: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop() // exits when Close closes the listener
	return p, nil
}

// Addr returns the proxy's listen address for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted returns how many connections the proxy has accepted: each one
// consumed one plan, so a test can tell its faults were all dealt out even
// when the client reuses keep-alive connections.
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// SetTarget atomically redirects future connections to a new backend
// address — existing connections keep their old backend.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// Close stops accepting, force-closes every proxied connection (idle
// keep-alive conns included — their handlers would otherwise block
// forever), and waits for all handlers to drain.
func (p *Proxy) Close() error {
	close(p.closed)
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

// track registers a connection for Close's teardown sweep; it refuses
// (and closes) connections that race past a concurrent Close.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.closed:
		_ = c.Close()
		return false
	default:
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		idx, target := p.next, p.target
		p.next++
		p.mu.Unlock()
		if !p.track(conn) {
			return
		}
		p.wg.Add(1)
		go p.handle(conn, target, p.plan(idx))
	}
}

// handle proxies one connection under its plan.
func (p *Proxy) handle(client net.Conn, target string, plan ConnPlan) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer closeConn(client, plan.Reset)
	if plan.Delay > 0 {
		t := time.NewTimer(plan.Delay)
		select {
		case <-t.C:
		case <-p.closed:
			t.Stop()
			return
		}
	}
	server, err := net.Dial("tcp", target)
	if err != nil {
		return // backend down: the client sees its connection drop
	}
	defer server.Close()
	if !p.track(server) {
		return
	}
	defer p.untrack(server)

	done := make(chan struct{})
	p.wg.Add(1)
	//lint:ignore goleak the copy returns when either conn closes; handle's teardown closes both and then receives on done
	go func() {
		defer p.wg.Done()
		defer close(done)
		if plan.CutAfterRequestBytes > 0 {
			// Forward only the allowed prefix, then kill both sides: the
			// server got a truncated request, the client a dead connection.
			_, _ = io.CopyN(server, client, plan.CutAfterRequestBytes)
			closeConn(client, plan.Reset)
			_ = server.Close()
			return
		}
		_, _ = io.Copy(server, client)
		closeWrite(server)
	}()

	if plan.DropResponse {
		// Swallow the first response bytes, then tear down. By the time the
		// server writes a response its handler has committed the mutation,
		// so the client observes "request sent, connection died" with the
		// work already applied.
		buf := make([]byte, 32<<10)
		_, _ = server.Read(buf)
	} else {
		_, _ = io.Copy(client, server)
	}
	// Unblock the client→server copy (its reads fail once both conns are
	// closed) and wait for it so Close's wg drains deterministically.
	_ = server.Close()
	closeConn(client, plan.Reset)
	<-done
}

// closeConn closes a connection, with an RST instead of a FIN when reset
// is set.
func closeConn(c net.Conn, reset bool) {
	if tc, ok := c.(*net.TCPConn); ok && reset {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// closeWrite half-closes the server side so an EOF from the client
// propagates as end-of-request, matching what a real intermediary does.
func closeWrite(c net.Conn) {
	type writeCloser interface{ CloseWrite() error }
	if wc, ok := c.(writeCloser); ok {
		_ = wc.CloseWrite()
	}
}
