// Command questload is a small client for a running questd. Each mode
// performs one step — the building blocks of the serve-smoke recovery
// check:
//
//	questload -addr ... -submit -algo ghz -qubits 3   # prints a job id
//	questload -addr ... -wait j-00000001              # blocks until terminal
//	questload -addr ... -fetch j-00000001             # result JSON to stdout
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/algos"
	"repro/internal/circuit"
	"repro/internal/jobs"
	"repro/internal/qasm"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8177", "questd address (host:port or a file written by questd -addr-file, prefixed with @)")
		algo      = flag.String("algo", "ghz", "benchmark circuit family: ghz or qft")
		qubits    = flag.Int("qubits", 3, "benchmark circuit size")
		epsilon   = flag.Float64("eps", 0, "per-job ε override (0 = server default)")
		samples   = flag.Int("samples", 0, "per-job M override (0 = server default)")
		objective = flag.String("objective", "", "per-job selection objective (cnot, fidelity[:<backend>], hybrid:<w>[:<backend>]; empty = server default)")
		tenant    = flag.String("tenant", "", "tenant attribution for submissions")

		submit  = flag.Bool("submit", false, "submit one job and print its id")
		wait    = flag.String("wait", "", "poll this job id until terminal (exit 0 only on done)")
		fetch   = flag.String("fetch", "", "print this job's result JSON")
		timeout = flag.Duration("timeout", 5*time.Minute, "overall driver deadline")
	)
	flag.Parse()

	cl := &client{base: "http://" + resolveAddr(*addr), deadline: time.Now().Add(*timeout)}
	src, err := buildQASM(*algo, *qubits)
	if err != nil {
		fatal(err)
	}
	req := serve.SubmitRequest{
		QASM:   src,
		Tenant: *tenant,
		Params: jobs.Params{Epsilon: *epsilon, MaxSamples: *samples, Objective: *objective},
	}

	switch {
	case *submit:
		j, err := cl.submit(req)
		if err != nil {
			fatal(err)
		}
		fmt.Println(j.ID)
	case *wait != "":
		j, err := cl.waitTerminal(*wait)
		if err != nil {
			fatal(err)
		}
		if j.State != jobs.Done {
			fatal(fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error))
		}
		fmt.Println(j.State)
	case *fetch != "":
		body, err := cl.fetchResult(*fetch)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(body)
	default:
		fatal(fmt.Errorf("one of -submit, -wait or -fetch is required"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "questload:", err)
	os.Exit(1)
}

// resolveAddr reads "@file" addresses from disk (questd -addr-file).
func resolveAddr(addr string) string {
	if len(addr) > 1 && addr[0] == '@' {
		data, err := os.ReadFile(addr[1:])
		if err != nil {
			fatal(err)
		}
		return string(bytes.TrimSpace(data))
	}
	return addr
}

func buildQASM(algo string, qubits int) (string, error) {
	var c *circuit.Circuit
	switch algo {
	case "ghz":
		c = algos.GHZ(qubits)
	case "qft":
		c = algos.QFT(qubits)
	default:
		return "", fmt.Errorf("unknown -algo %q (ghz or qft)", algo)
	}
	return qasm.Write(c), nil
}

// client is a minimal questd API client with shed-aware submission.
type client struct {
	base     string
	deadline time.Time
}

// submit posts one job, retrying politely on 429 (honouring
// Retry-After).
func (cl *client) submit(req serve.SubmitRequest) (jobs.Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobs.Job{}, err
	}
	sheds := 0
	for {
		resp, err := http.Post(cl.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return jobs.Job{}, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var j jobs.Job
			err := json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			return j, err
		case http.StatusTooManyRequests:
			resp.Body.Close()
			sheds++
			if time.Now().After(cl.deadline) {
				return jobs.Job{}, fmt.Errorf("driver deadline exceeded while shed (%d times)", sheds)
			}
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			time.Sleep(wait)
		default:
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return jobs.Job{}, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
	}
}

func (cl *client) waitTerminal(id string) (jobs.Job, error) {
	for {
		resp, err := http.Get(cl.base + "/v1/jobs/" + id)
		if err != nil {
			return jobs.Job{}, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return jobs.Job{}, fmt.Errorf("status %s: %s", id, resp.Status)
		}
		var j jobs.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			return jobs.Job{}, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		if time.Now().After(cl.deadline) {
			return j, fmt.Errorf("driver deadline exceeded waiting for %s (state %s)", id, j.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (cl *client) fetchResult(id string) ([]byte, error) {
	resp, err := http.Get(cl.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: %s: %s", id, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
