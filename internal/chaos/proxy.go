package chaos

import (
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is a peer-level TCP fault injector: it listens on an ephemeral
// local port and forwards every connection to a target address, subject
// to the currently set fault. Pointing a cluster membership map's
// addresses at proxies instead of the real nodes puts every data-plane
// byte under test control: added latency, blackholes (connections accepted
// and silently starved), and connection resets. Link flapping is the test
// toggling SetMode between ProxyBlackhole and ProxyPass — the mode is read
// per connection, so each retry attempt sees the link state of its moment.
// mu guards mode, latency, closed and conns.
type Proxy struct {
	target string
	l      net.Listener

	mu sync.Mutex

	mode    ProxyMode
	latency time.Duration
	closed  bool
	conns   map[net.Conn]bool
}

// ProxyMode selects the fault applied to new connections.
type ProxyMode int

const (
	// ProxyPass forwards untouched.
	ProxyPass ProxyMode = iota
	// ProxyLatency forwards after delaying each connection's first byte
	// window by the configured latency.
	ProxyLatency
	// ProxyBlackhole accepts the connection and then neither forwards nor
	// answers: the client's bytes vanish and its deadline is what ends
	// the exchange — the shape of a partitioned or hung peer.
	ProxyBlackhole
	// ProxyReset closes each accepted connection immediately with RST —
	// the shape of a crashed peer with a dead port.
	ProxyReset
)

// NewProxy starts a proxy to target on an ephemeral localhost port.
func NewProxy(target string) (*Proxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, l: l, conns: map[net.Conn]bool{}}
	go p.serve()
	return p, nil
}

// Addr is the address clients (and membership maps) should dial.
func (p *Proxy) Addr() string { return p.l.Addr().String() }

// SetMode switches the fault applied to subsequent connections.
func (p *Proxy) SetMode(m ProxyMode) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mode = m
}

// SetLatency sets the delay used by ProxyLatency.
func (p *Proxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latency = d
}

// Close stops the listener and severs every live connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.l.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// fault reads the mode and latency for one new connection.
func (p *Proxy) fault() (ProxyMode, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode, p.latency
}

// track registers a live connection for Close-time severing; it reports
// false (and closes the connection) when the proxy is already closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = true
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.conns, c)
}

// serve accepts until the listener closes.
func (p *Proxy) serve() {
	for {
		c, err := p.l.Accept()
		if err != nil {
			return
		}
		go p.handle(c)
	}
}

// handle applies the current fault to one connection and terminates when
// either side closes (or, for a blackhole, when the client gives up).
func (p *Proxy) handle(c net.Conn) {
	if !p.track(c) {
		return
	}
	defer p.untrack(c)
	defer c.Close()

	mode, latency := p.fault()
	switch mode {
	case ProxyReset:
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN: the client sees a reset
		}
		return
	case ProxyBlackhole:
		// Swallow the client's bytes and never answer; its deadline ends
		// the wait. Reading (rather than ignoring) keeps small requests
		// from blocking in the kernel before the client even arms a timer.
		io.Copy(io.Discard, c)
		return
	case ProxyLatency:
		time.Sleep(latency)
	}

	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	if !p.track(up) {
		return
	}
	defer p.untrack(up)
	defer up.Close()

	done := make(chan struct{}, 1) // the copier can always finish
	go func() {
		io.Copy(up, c)
		if tc, ok := up.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	io.Copy(c, up)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	<-done
}
