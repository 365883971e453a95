package metrics

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
	"sync/atomic"
)

var publishedFuncs sync.Map // expvar name -> *atomic.Value holding func() any

// PublishFunc exposes fn as the expvar name (on /debug/vars). Safe to
// call repeatedly — expvar allows each name only once per process, so
// later calls swap which function the variable reads. A binary publishes
// one product blob this way: the build registry (fock_metrics), the shard
// (fock_shard) or fleet (fock_fleet) state, or the service's (hfd).
func PublishFunc(name string, fn func() any) {
	holder, loaded := publishedFuncs.LoadOrStore(name, &atomic.Value{})
	h := holder.(*atomic.Value)
	h.Store(fn)
	if !loaded {
		expvar.Publish(name, expvar.Func(func() any {
			return h.Load().(func() any)()
		}))
	}
}

// StartDebugServer serves the process-wide debug mux — /debug/vars
// (expvar: whatever PublishFunc exposed) and /debug/pprof/ — on addr in a
// background goroutine. It publishes nothing itself. It returns the bound
// address (useful with ":0") and never stops serving; the endpoint is an
// inspection aid for the lifetime of a run, not a managed service.
func StartDebugServer(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
