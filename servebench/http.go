package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"graphsig/internal/netflow"
	"graphsig/internal/server"
)

// node is one booted server behind its own HTTP handler on a loopback
// listener.
type node struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

// boot builds the server on cfg's directories, serves it on a loopback
// port and returns once GET /readyz answers 200.
func boot(cfg server.Config, client *http.Client) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Abort()
		return nil, fmt.Errorf("boot: %w", err)
	}
	n := &node{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, MaxHeaderBytes: 1 << 20},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { n.served <- n.hs.Serve(ln) }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		status, _, err := httpAPI(client, n.base)(http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return n, nil
		}
		if time.Now().After(deadline) {
			n.stop()
			return nil, fmt.Errorf("boot: server not ready (status %d, %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains HTTP, waits for the serve loop to return, then runs the
// server's Shutdown: flush the open window, save, reset the WAL.
func (n *node) stop() error {
	herr := n.drain()
	if err := n.srv.Shutdown(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return herr
}

// drain shuts the listener and waits for the serve loop to return.
func (n *node) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// abort drains HTTP and drops the server without flushing or saving
// anything, as a crash would.
func (n *node) abort() error {
	err := n.drain()
	n.srv.Abort()
	return err
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
	}
}

// api is one way to reach the server: over HTTP, or through its
// handler in process.
type api func(method, path string, body []byte) (status int, resp []byte, err error)

// httpAPI sends requests over the loopback listener; the response body
// is read to its last byte before the call returns.
func httpAPI(c *http.Client, base string) api {
	return func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
}

// handlerAPI calls the server's handler directly, without a listener.
func handlerAPI(h http.Handler) api {
	return func(method, path string, body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// timed calls a and reports the round-trip time.
func (a api) timed(method, path string, body []byte) (int, []byte, time.Duration, error) {
	begin := time.Now()
	status, resp, err := a(method, path, body)
	return status, resp, time.Since(begin), err
}

// json calls a, fails on any status but 200 and decodes the response.
func (a api) json(method, path string, body []byte, out any) error {
	status, raw, err := a(method, path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, raw)
	}
	return json.Unmarshal(raw, out)
}

// encodeIngest renders a POST /v1/flows body in server.RecordJSON's
// wire form. It is hand-rolled so that encoding between POSTs costs the
// closed-loop client little next to the server's work.
func encodeIngest(buf []byte, recs []netflow.Record) []byte {
	buf = append(buf[:0], `{"records":[`...)
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"src":`...)
		buf = appendJSONString(buf, r.Src)
		buf = append(buf, `,"dst":`...)
		buf = appendJSONString(buf, r.Dst)
		buf = append(buf, `,"start":"`...)
		buf = r.Start.AppendFormat(buf, time.RFC3339Nano)
		buf = append(buf, `","duration_ms":`...)
		buf = strconv.AppendInt(buf, r.Duration.Milliseconds(), 10)
		buf = append(buf, `,"sessions":`...)
		buf = strconv.AppendInt(buf, int64(r.Sessions), 10)
		buf = append(buf, `,"bytes":`...)
		buf = strconv.AppendInt(buf, r.Bytes, 10)
		buf = append(buf, `,"packets":`...)
		buf = strconv.AppendInt(buf, r.Packets, 10)
		buf = append(buf, `,"proto":`...)
		buf = appendJSONString(buf, r.Proto.String())
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// appendJSONString quotes s; labels are plain ASCII, anything else
// takes encoding/json's path.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(buf, q...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

func searchBody(label, distance string, maxDist float64) []byte {
	b, _ := json.Marshal(server.SearchRequest{Label: label, K: topK, Distance: distance, MaxDist: maxDist})
	return b
}

func batchBody(labels []string) []byte {
	req := server.BatchSearchRequest{Distance: "jaccard"}
	for _, l := range labels {
		req.Queries = append(req.Queries, server.SearchRequest{Label: l, K: topK})
	}
	b, _ := json.Marshal(req)
	return b
}

// historyPath asks for the whole archive of label: limit=0 is the
// server's unbounded form.
func historyPath(label string) string { return "/v1/signatures/" + label + "?limit=0" }
