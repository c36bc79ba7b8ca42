package hsmcc

// Smoke tests for the three command-line tools: build each binary once
// and run it against the repository's test data.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildCmd compiles one of the cmd/ binaries into a temp dir.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCmdHsmcc(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCmd(t, "hsmcc")
	out, err := exec.Command(bin, "-cores", "3", "-policy", "offchip", "testdata/example41.c").Output()
	if err != nil {
		t.Fatalf("hsmcc: %v", err)
	}
	golden, err := os.ReadFile("testdata/example41_rcce.golden.c")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(golden) {
		t.Errorf("CLI output differs from golden translation:\n%s", out)
	}
	// Error paths.
	if err := exec.Command(bin, "-policy", "bogus", "testdata/example41.c").Run(); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("missing input accepted")
	}
	// A budget the machine does not have exits 1 with the one budget
	// rule's text (bench.EffectiveBudget).
	for _, c := range []struct{ mpb, want string }{
		{"-5", "hsmcc: negative MPB budget -5 (use 0 for the full MPB)\n"},
		{"99999999", "hsmcc: MPB budget 99999999 exceeds the 393216-byte MPB of machine scc48\n"},
	} {
		out, err := exec.Command(bin, "-mpb", c.mpb, "testdata/example41.c").CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || string(out) != c.want {
			t.Errorf("-mpb %s: %v, output %q; want exit 1 and %q", c.mpb, err, out, c.want)
		}
	}
}

func TestCmdHsmsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCmd(t, "hsmsim")
	// Baseline mode on the Pthread example.
	out, err := exec.Command(bin, "-mode", "pthread", "testdata/example41.c").Output()
	if err != nil {
		t.Fatalf("hsmsim pthread: %v", err)
	}
	for _, want := range []string{"Sum Array: 1", "Sum Array: 2", "Sum Array: 3"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("pthread run missing %q:\n%s", want, out)
		}
	}
	// RCCE mode on the golden translated program.
	out, err = exec.Command(bin, "-mode", "rcce", "-cores", "3", "testdata/example41_rcce.golden.c").Output()
	if err != nil {
		t.Fatalf("hsmsim rcce: %v", err)
	}
	if !strings.Contains(string(out), "Sum Array:") {
		t.Errorf("rcce run produced no sums:\n%s", out)
	}
}

func TestCmdHsmconf(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCmd(t, "hsmconf")
	// -print must emit a parseable kernel deterministically.
	a, err := exec.Command(bin, "-seed", "7", "-print", "-cores", "3").Output()
	if err != nil {
		t.Fatalf("hsmconf -print: %v", err)
	}
	b, err := exec.Command(bin, "-seed", "7", "-print", "-cores", "3").Output()
	if err != nil {
		t.Fatalf("hsmconf -print (second): %v", err)
	}
	if string(a) != string(b) {
		t.Error("hsmconf -print is not deterministic for a fixed seed")
	}
	if !strings.Contains(string(a), "pthread_create") {
		t.Errorf("generated kernel has no thread launch:\n%s", a)
	}
	// A small conformance run over all three policies must pass.
	out, err := exec.Command(bin, "-seed", "1", "-n", "6", "-cores", "2",
		"-policies", "offchip,size,freq", "-budgets", "0",
		"-out", filepath.Join(t.TempDir(), "crashers")).Output()
	if err != nil {
		t.Fatalf("hsmconf run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 failure(s)") {
		t.Errorf("conformance run reported failures:\n%s", out)
	}
	// Error paths: a bad matrix must be rejected before any work.
	if err := exec.Command(bin, "-policies", "bogus").Run(); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := exec.Command(bin, "-cores", "0").Run(); err == nil {
		t.Error("cores=0 accepted")
	}
}

// TestCmdHsmccdDrain covers the daemon's SIGTERM lifecycle end to end:
// while a long simulation is in flight, the signal must flip /healthz
// to 503 draining, refuse new /v1/* work, cancel the in-flight
// simulation at the drain deadline (a clean 504, not a dropped
// connection), and exit 0 with the drain log lines.
func TestCmdHsmccdDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs a multi-second drain sequence")
	}
	bin := buildCmd(t, "hsmccd")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-grace", "1s", "-drain-timeout", "2s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon logs its real listener address (the test binds :0), so
	// parse the first log line for the port; keep draining stderr into a
	// buffer for the final assertions.
	var logs bytes.Buffer
	sc := bufio.NewScanner(io.TeeReader(stderr, &logs))
	var base string
	listenRe := regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)
	for sc.Scan() {
		if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never logged its listener address:\n%s", logs.String())
	}
	done := make(chan struct{})
	go func() { // the tee already captured scanned bytes; drain the rest
		io.Copy(&logs, stderr)
		close(done)
	}()

	if status, body := get(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz before drain: %d %q", status, body)
	}

	// Park a simulation that takes far longer (~15s) than the 2s drain
	// deadline, so the only way the process can exit on time is by
	// canceling it.
	slowCh := make(chan *http.Response, 1)
	slowErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/simulate", "application/json",
			strings.NewReader(`{"workload":"lu","cores":8,"scale":1.0,"deadline_ms":60000}`))
		if err != nil {
			slowErr <- err
			return
		}
		slowCh <- resp
	}()
	time.Sleep(300 * time.Millisecond) // let the request reach the handler

	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// During the grace window the listener still answers: /healthz must
	// report draining and new work must be refused.
	var sawDraining bool
	for deadline := time.Now().Add(800 * time.Millisecond); time.Now().Before(deadline); {
		status, body := get(t, base+"/healthz")
		if status == http.StatusServiceUnavailable && strings.Contains(body, "draining") {
			sawDraining = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("healthz never reported 503 draining during the grace window")
	}
	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(`{"workload":"pi"}`))
	if err != nil {
		t.Fatalf("compile during drain: %v", err)
	}
	refuseBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("compile during drain: status %d %s, want 503", resp.StatusCode, refuseBody)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("drain refusal carries no Retry-After header")
	}

	// The parked simulation must come back as a clean 504 once the drain
	// deadline cancels it.
	select {
	case resp := <-slowCh:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("in-flight simulate under drain: status %d %s, want 504", resp.StatusCode, body)
		}
	case err := <-slowErr:
		t.Errorf("in-flight simulate dropped instead of answered: %v", err)
	case <-time.After(15 * time.Second):
		t.Error("in-flight simulate never completed — drain cancel did not reach it")
	}

	// Read stderr to its end before Wait, which closes the pipe: waiting
	// first can drop the last log lines.
	<-done
	if err := cmd.Wait(); err != nil {
		t.Errorf("daemon exit after SIGTERM: %v (want clean exit 0)", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("drain took %s, want grace+deadline+slack (< 10s)", elapsed)
	}
	for _, want := range []string{"draining (grace", "drained, exiting"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("daemon log missing %q:\n%s", want, logs.String())
		}
	}
}

// get issues a GET and returns (status, body), failing the test on
// transport errors only if the caller treats them as fatal — during
// drain the listener may already be gone, so errors map to status 0.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, fmt.Sprint(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestCmdHsmbench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCmd(t, "hsmbench")
	out, err := exec.Command(bin, "-exp", "table6.1").Output()
	if err != nil {
		t.Fatalf("hsmbench table6.1: %v", err)
	}
	if !strings.Contains(string(out), "800 MHz") {
		t.Errorf("table6.1 output wrong:\n%s", out)
	}
	out, err = exec.Command(bin, "-exp", "table4.2").Output()
	if err != nil {
		t.Fatalf("hsmbench table4.2: %v", err)
	}
	if !strings.Contains(string(out), "tmp") {
		t.Errorf("table4.2 output wrong:\n%s", out)
	}
	// A fast figure run.
	out, err = exec.Command(bin, "-exp", "fig6.1", "-threads", "4", "-scale", "0.05").Output()
	if err != nil {
		t.Fatalf("hsmbench fig6.1: %v", err)
	}
	if !strings.Contains(string(out), "Pi Approximation") {
		t.Errorf("fig6.1 output wrong:\n%s", out)
	}
	// Grid mode: a parallel sharded sweep that must emit valid JSON.
	jsonPath := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	out, err = exec.Command(bin, "-workloads", "pi,hist", "-cores", "2,4", "-scale", "0.05",
		"-parallel", "4", "-grid", "smoke", "-json", "-out", jsonPath).Output()
	if err != nil {
		t.Fatalf("hsmbench grid: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Grid \"smoke\"") {
		t.Errorf("grid summary missing:\n%s", out)
	}
	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("grid JSON not written: %v", err)
	}
	var rep struct {
		Results []struct {
			Workload string `json:"workload"`
			Match    bool   `json:"match"`
			RCCEPs   uint64 `json:"rcce_ps"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("grid JSON invalid: %v", err)
	}
	if len(rep.Results) != 8 {
		t.Errorf("grid JSON has %d results, want 8", len(rep.Results))
	}
	for i, r := range rep.Results {
		if !r.Match || r.RCCEPs == 0 {
			t.Errorf("grid JSON cell %d (%s): match=%v rcce_ps=%d", i, r.Workload, r.Match, r.RCCEPs)
		}
	}
}
