package share

import (
	"testing"

	"iolap/internal/leakcheck"
)

// TestMain fails the package when a test leaves goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
