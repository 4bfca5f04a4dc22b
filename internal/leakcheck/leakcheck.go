// Package leakcheck is test support: a TestMain guard that fails a package's
// test binary when goroutines its tests started outlive them. Only _test
// files import it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// settle is how long the guard waits for goroutines that are already
// winding down (closed connections, finished pool workers) to exit.
const settle = 3 * time.Second

// Main runs the package's tests, then waits up to settle for the goroutine
// count to drop back to its value before the tests ran. If it does not, the
// binary fails and every goroutine's stack is printed. Call it as the whole
// body of TestMain.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines still running %v after the tests, %d before them:\n\n", n, settle, before)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		code = max(code, 1)
	}
	os.Exit(code)
}
