package viampi

// Smoke tests that build and run every example binary with small arguments,
// guarding the examples against rot. They exec the go tool, so they skip
// under -short.

import (
	"os/exec"
	"strings"
	"testing"
)

func runExample(t *testing.T, path string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("examples smoke runs in full mode only")
	}
	cmd := exec.Command("go", append([]string{"run", path}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s: %v\n%s", path, err, out)
	}
	return string(out)
}

func TestExampleQuickstart(t *testing.T) {
	out := runExample(t, "./examples/quickstart")
	if !strings.Contains(out, "ondemand") || !strings.Contains(out, "utilization: 1.00") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleStencil(t *testing.T) {
	out := runExample(t, "./examples/stencil", "-np", "9", "-sweeps", "2")
	if !strings.Contains(out, "on-demand touches only neighbours") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleAnysource(t *testing.T) {
	out := runExample(t, "./examples/anysource")
	if !strings.Contains(out, "master VIs: 9") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleNpbmini(t *testing.T) {
	out := runExample(t, "./examples/npbmini", "-bench", "EP", "-class", "S", "-np", "4")
	if !strings.Contains(out, "verified true") || strings.Contains(out, "verified false") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleHeat(t *testing.T) {
	out := runExample(t, "./examples/heat", "-np", "4", "-tile", "8", "-iters", "5")
	if !strings.Contains(out, "final residual") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExampleTcpring(t *testing.T) {
	out := runExample(t, "./examples/tcpring", "-np", "4", "-laps", "5")
	if !strings.Contains(out, "ondemand") || !strings.Contains(out, "static") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestToolVibench(t *testing.T) {
	out := runExample(t, "./cmd/vibench", "-device", "clan", "-maxvis", "4")
	if !strings.Contains(out, "peer connect") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestToolMpirunSim(t *testing.T) {
	out := runExample(t, "./cmd/mpirun-sim", "-np", "4", "-matrix", "-profile", "EP", "S")
	if !strings.Contains(out, "verified           : true") ||
		!strings.Contains(out, "communication matrix") ||
		!strings.Contains(out, "Allreduce") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}
