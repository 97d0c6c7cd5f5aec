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
	"time"

	"repro/internal/server"
)

// httpServer serves a server.Server's handler on a loopback listener
// for the life of one workload run.
type httpServer struct {
	hs   *http.Server
	done chan error
	url  string
}

func startHTTP(srv *server.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpServer{hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// stop shuts the listener down and waits for Serve to return.
func (h *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is the workload's one client: one keep-alive connection, no
// think time.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body as JSON to path and decodes a 200 response into out.
func (c *client) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return decodeResponse(path, resp, out)
}

func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	return decodeResponse(path, resp, out)
}

func decodeResponse(path string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: decode: %w", path, err)
	}
	return nil
}

// queryResponse is the part of /api/query, /api/clean and /api/reset
// responses the benchmark checks.
type queryResponse struct {
	Rows    [][]any  `json:"rows"`
	Applied []string `json:"applied"`
}

type debugResponse struct {
	LineageSize  int    `json:"lineageSize"`
	Mode         string `json:"mode"`
	Explanations []struct {
		Predicate string `json:"predicate"`
	} `json:"explanations"`
}

type zoomResponse struct {
	Rows      [][]any `json:"rows"`
	Truncated bool    `json:"truncated"`
}

type suggestResponse struct {
	SuggestedC  float64 `json:"suggestedC"`
	Recommended string  `json:"recommended"`
}

// statsResponse is the part of /api/stats the traced run reads.
type statsResponse struct {
	Tables map[string]struct {
		Segments int `json:"segments"`
		Bytes    int `json:"approx_bytes"`
	} `json:"tables"`
}
