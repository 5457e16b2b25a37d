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

	"earthing/internal/cluster"
	"earthing/internal/server"
	"earthing/internal/store"
)

// node is one in-process groundd serving HTTP on a loopback TCP port, so a
// request crosses the same socket, HTTP and JSON layers a remote client's
// would.
type node struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func startNode(ln net.Listener, cfg server.Config) (*node, error) {
	srv, err := server.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	n := &node{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the HTTP side, waits for Serve to return, then closes the
// server, which flushes its store.
func (n *node) stop(ctx context.Context) error {
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// startFleet brings up one groundd per store directory, every node knowing
// every other as a ring member. The listeners exist before the servers so
// each node is built with the full membership.
func startFleet(ctx context.Context, dirs []string) ([]*node, error) {
	lns := make([]net.Listener, len(dirs))
	members := make([]cluster.Member, len(dirs))
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				//lint:ignore errdrop tearing down after an earlier failure, which is the error reported
				ln.Close()
			}
		}
	}
	for i := range dirs {
		ln, err := listen()
		if err != nil {
			closeAll()
			return nil, err
		}
		lns[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), URL: "http://" + ln.Addr().String()}
	}
	var nodes []*node
	for i, dir := range dirs {
		n, err := startStoreNode(lns[i], dir, &server.FleetConfig{NodeID: members[i].ID, Members: members})
		if err != nil {
			closeAll()
			//lint:ignore errdrop tearing down after an earlier failure, which is the error reported
			stopAll(ctx, nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func startStoreNode(ln net.Listener, dir string, fleet *server.FleetConfig) (*node, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	n, err := startNode(ln, server.Config{Store: st, Fleet: fleet})
	if err != nil {
		//lint:ignore errdrop the server never took ownership of the store; its construction error is the one reported
		st.Close()
		return nil, err
	}
	return n, nil
}

func stopAll(ctx context.Context, nodes []*node) error {
	var first error
	for _, n := range nodes {
		if err := n.stop(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// client is the load generator's HTTP client: one keep-alive connection per
// concurrent caller and host.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// response is a request's outcome as the client sees it.
type response struct {
	status int
	tier   string // X-Groundd-Cache-Tier: the rung that served it
	body   []byte
}

func (c *client) do(ctx context.Context, method, url string, body []byte) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return response{}, fmt.Errorf("read %s response: %w", url, err)
	}
	return response{status: resp.StatusCode, tier: resp.Header.Get("X-Groundd-Cache-Tier"), body: b}, nil
}

// post sends a JSON request and fails on anything but a 200.
func (c *client) post(ctx context.Context, url string, body []byte) (response, error) {
	resp, err := c.do(ctx, http.MethodPost, url, body)
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %s", url, resp.status, bytes.TrimSpace(resp.body))
	}
	return resp, err
}

func (c *client) stats(ctx context.Context, n *node) (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := c.do(ctx, http.MethodGet, n.url+"/v1/stats", nil)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(resp.body, &snap)
}

// waitReady polls /readyz until the node has replayed its store.
func (c *client) waitReady(ctx context.Context, n *node) error {
	for {
		resp, err := c.do(ctx, http.MethodGet, n.url+"/readyz", nil)
		if err == nil && resp.status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", n.url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// statsDelta turns /v1/stats snapshots taken after set-up and after the
// measured pass into the server and cluster per-layer counters.
func statsDelta(before, after []server.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for i := range after {
		out["server.rejected_429"] += float64(after[i].RejectedQueueFull - before[i].RejectedQueueFull)
		out["server.assemblies"] += float64(after[i].Assemblies - before[i].Assemblies)
		out["cluster.peer_fallbacks"] += float64(after[i].PeerFallbacks - before[i].PeerFallbacks)
		out["cluster.breaker_open"] += float64(after[i].BreakerOpen)
	}
	return out
}

func snapshotAll(ctx context.Context, c *client, nodes []*node) ([]server.Snapshot, error) {
	out := make([]server.Snapshot, len(nodes))
	for i, n := range nodes {
		s, err := c.stats(ctx, n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
