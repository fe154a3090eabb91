package transport

import (
	"fmt"
	"net"
	"sync"
)

// NewMem returns a fabric whose medium is in-process: the same framed
// connections as NewTCP, carried over net.Pipe pairs instead of sockets,
// so every message crosses the codec and no socket is opened.  A Faults
// plan (SetFaults) adds per-link loss and delay.
func NewMem() *TCP {
	p := &pipes{lis: make(map[string]*pipeListener)}
	return newFabric(p.listen, p.dial)
}

// pipes is NewMem's medium: an address registry whose listeners accept
// net.Pipe connections.  Every listen hands out a fresh address, so an id
// that re-registers is redialed exactly as a TCP endpoint on a new port
// is.
type pipes struct {
	mu   sync.Mutex
	next int
	lis  map[string]*pipeListener // guarded by mu
}

type pipeListener struct {
	p     *pipes
	addr  pipeAddr
	conns chan net.Conn
	done  chan struct{} // closed by Close
}

type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

func (p *pipes) listen() (net.Listener, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next++
	l := &pipeListener{p: p, addr: pipeAddr(fmt.Sprintf("pipe:%d", p.next)), conns: make(chan net.Conn), done: make(chan struct{})}
	p.lis[string(l.addr)] = l
	return l, nil
}

// dial hands one end of a fresh pipe to the listener's Accept and returns
// the other; an address nobody listens on is refused, like a closed port.
func (p *pipes) dial(addr string) (net.Conn, error) {
	p.mu.Lock()
	l := p.lis[addr]
	p.mu.Unlock()
	if l != nil {
		client, server := net.Pipe()
		select {
		case l.conns <- server:
			return client, nil
		case <-l.done:
			client.Close()
			server.Close()
		}
	}
	return nil, fmt.Errorf("transport: dial %s: connection refused", addr)
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unregisters the address, refusing later dials; addresses are
// never reused, so a second Close finds nothing to do.
func (l *pipeListener) Close() error {
	l.p.mu.Lock()
	defer l.p.mu.Unlock()
	if l.p.lis[string(l.addr)] == l {
		delete(l.p.lis, string(l.addr))
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }
