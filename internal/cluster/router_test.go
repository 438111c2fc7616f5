package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"provmin/internal/metrics"
)

// TestRouterRefusesForwardedRequest points a router's only peer at the
// router itself: the request it forwards comes back marked as forwarded,
// and the router answers it 508 instead of forwarding it again.
func TestRouterRefusesForwardedRequest(t *testing.T) {
	srv := httptest.NewUnstartedServer(nil)
	reg := metrics.NewRegistry()
	topo, err := NewTopology(TopologyConfig{Peers: []Node{{Name: "a", URL: "http://" + srv.Listener.Addr().String()}}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	rt, err := NewRouter(RouterConfig{Topology: topo, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = rt
	srv.Start()
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/instances", "application/json", strings.NewReader(`{"initial":"R r1 a b"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusLoopDetected)
	}
	if n := reg.Counter("router_proxied_total").Value(); n != 1 {
		t.Fatalf("router proxied %d requests, want exactly 1", n)
	}
}
