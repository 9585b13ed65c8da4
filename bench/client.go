package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// conn is one keep-alive HTTP/1.1 client connection that sends pre-built
// request bytes and parses the response into a reused buffer. It exists so
// the load generator allocates nothing per request: every allocation the
// process makes in a measured phase is the server's, and the two cores are
// not spent on a client stack the benchmark is not about.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), body: make([]byte, 0, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() } // a benchmark connection holds no data worth a close error

// request renders one HTTP/1.1 request with a fixed-length body.
func request(method, path, contentType string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if contentType != "" {
		fmt.Fprintf(&b, "Content-Type: %s\r\n", contentType)
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes()
}

var (
	errBadResponse = errors.New("malformed HTTP response")
	hdrLength      = []byte("content-length")
	hdrEncoding    = []byte("transfer-encoding")
)

// roundTrip writes req and reads one response. The returned body aliases the
// connection's buffer and is valid until the next call.
func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 {
		return 0, nil, errBadResponse
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errBadResponse
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, nil, errBadResponse
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, hdrLength):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, nil, errBadResponse
			}
		case bytes.EqualFold(key, hdrEncoding):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case length >= 0:
		err = c.readN(length)
	default:
		err = errBadResponse // neither framing: the server would close, which a keep-alive loop cannot use
	}
	return status, c.body, err
}

// readN appends exactly n body bytes.
func (c *conn) readN(n int) error {
	off := len(c.body)
	if cap(c.body) < off+n {
		c.body = append(c.body[:cap(c.body)], make([]byte, off+n-cap(c.body))...)
	}
	c.body = c.body[:off+n]
	_, err := io.ReadFull(c.br, c.body[off:])
	return err
}

func (c *conn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if semi := bytes.IndexByte(line, ';'); semi >= 0 {
			line = line[:semi]
		}
		n, err := strconv.ParseUint(string(line), 16, 31)
		if err != nil {
			return errBadResponse
		}
		if n == 0 {
			// Trailer section: header lines up to the blank one.
			for {
				line, err = c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		if err := c.readN(int(n)); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
			return err
		}
	}
}
