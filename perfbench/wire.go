package main

import (
	"fmt"
	"net"
	"syscall"

	"migratorydata/internal/protocol"
	"migratorydata/internal/websocket"
)

// wire is one client connection in the server's raw or WebSocket framing.
// A write carries any number of encoded protocol frames; a read returns
// whatever bytes arrived, which may hold partial frames.
type wire struct {
	nc  net.Conn
	ws  *websocket.Conn // nil in raw framing
	buf []byte          // read buffer
}

// dial connects to addr and, in "ws" mode, performs the client handshake.
// A non-zero port binds the client end to it. The engine pins each
// connection to an IoThread and a Worker by hashing the client address and
// its connection number; a fixed address gives the benchmark's two
// connections the same pinning in every run, where ephemeral ports would
// pick one of the shared or split layouts at random.
func dial(addr, mode string, port int) (*wire, error) {
	d := net.Dialer{Control: reuseAddr}
	if port != 0 {
		d.LocalAddr = &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
	}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	w := &wire{nc: nc}
	if mode == "ws" {
		if w.ws, err = websocket.ClientHandshake(nc, addr, "/"); err != nil {
			nc.Close()
			return nil, fmt.Errorf("websocket handshake with %s: %w", addr, err)
		}
		// Every message is fed to a decoder, which copies it, so one
		// buffer serves every read.
		w.ws.SetPayloadAlloc(func(n int) []byte {
			if cap(w.buf) < n {
				w.buf = make([]byte, n)
			}
			return w.buf[:n]
		})
		return w, nil
	}
	w.buf = make([]byte, 64<<10)
	return w, nil
}

func (w *wire) write(frames []byte) error {
	if w.ws != nil {
		return w.ws.WriteMessage(websocket.OpBinary, frames)
	}
	_, err := w.nc.Write(frames)
	return err
}

// read returns the next received bytes; they stay valid until the next read.
func (w *wire) read() ([]byte, error) {
	if w.ws != nil {
		_, p, err := w.ws.ReadMessage()
		return p, err
	}
	n, err := w.nc.Read(w.buf)
	return w.buf[:n], err
}

func (w *wire) close() { w.nc.Close() }

// awaitKind reads frames until one of the given kind arrives, for the
// handshakes done before any traffic flows.
func (w *wire) awaitKind(dec *protocol.StreamDecoder, kind protocol.Kind) (*protocol.Message, error) {
	for {
		m, err := dec.Next()
		if err != nil {
			return nil, err
		}
		if m != nil {
			if m.Kind == kind {
				return m, nil
			}
			continue
		}
		b, err := w.read()
		if err != nil {
			return nil, fmt.Errorf("awaiting %s: %w", kind, err)
		}
		dec.Feed(b)
	}
}

// reuseAddr lets a client socket bind a port that an earlier connection of
// the run still holds in TIME_WAIT; the server port differs, so the
// connections stay distinct.
func reuseAddr(_, _ string, c syscall.RawConn) error {
	var serr error
	err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	})
	if err != nil {
		return err
	}
	return serr
}
