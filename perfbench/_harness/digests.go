package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// Digest is the virtual-time oracle for one run: results a performance change
// must leave byte-identical. Message workloads fill VirtualNS, Events and
// SHA256 (a hash over every rank's counters); figures-quick fills Tables, the
// SHA-256 of each experiment's rendered table.
type Digest struct {
	VirtualNS int64             `json:"virtual_ns,omitempty"`
	Events    uint64            `json:"events,omitempty"`
	SHA256    string            `json:"sha256,omitempty"`
	Tables    map[string]string `json:"tables,omitempty"`
}

// sameRun reports whether two message-workload digests agree.
func (d Digest) sameRun(o Digest) bool {
	return d.VirtualNS == o.VirtualNS && d.Events == o.Events && d.SHA256 == o.SHA256
}

// Digests maps workload → input seed (as a decimal string) → digest.
type Digests map[string]map[string]Digest

//go:embed digests.json
var recordedJSON []byte

func recordedDigests() (Digests, error) {
	var d Digests
	if err := json.Unmarshal(recordedJSON, &d); err != nil {
		return nil, fmt.Errorf("perfbench: parsing recorded digests: %w", err)
	}
	return d, nil
}

func (d Digests) lookup(workload string, seed int64) (Digest, bool) {
	g, ok := d[workload][strconv.FormatInt(seed, 10)]
	return g, ok
}

// recordMain regenerates digests.json: it runs every workload once on each
// input set, untraced, and writes what it observed. Run it only when a change
// is meant to alter virtual-time results, and review the diff.
func recordMain(out string) error {
	d := Digests{}
	for _, name := range workloadNames {
		d[name] = map[string]Digest{}
		for s := int64(1); s <= inputClasses; s++ {
			r, err := runOnce(name, s, false, fullSize, 0, nil)
			if err != nil {
				return err
			}
			if r.Failed > 0 {
				return fmt.Errorf("perfbench: %s seed %d: %d of %d operations failed", name, s, r.Failed, r.Ops)
			}
			d[name][strconv.FormatInt(s, 10)] = r.Digest
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", name, s)
		}
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
