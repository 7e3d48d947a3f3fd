// Command patchmerge implements collaborative bug correction (paper
// §6.4): it merges any number of runtime patch files — taking the maximum
// pad per allocation site and the maximum deferral per site pair — into
// one file that covers every error any user observed.
//
// Inputs may mix patch files (one codec PatchSet frame, as exterminate
// -patches and patchmerge -o write them, or a frame saved from GET
// /v1/patches), the JSON document GET /v1/patches answers to curl, and
// the text format; each file's format is detected from its bytes.
// Every input is fully decoded and validated before anything is
// merged or written: a corrupt file aborts the whole merge with a
// non-zero exit instead of producing a partial result. The output is
// always a patch file.
//
//	patchmerge -o merged.xtp user1.xtp user2.xtp
//	patchmerge -o merged.xtp user1.xtp fleet-download.json notes.txt
//	patchmerge -text merged.xtp            # print, don't write
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"exterminator/internal/fleet"
	"exterminator/internal/fleet/codec"
	"exterminator/internal/patch"
)

func main() {
	out := flag.String("o", "", "write the merged patch file here (omit to just print a summary)")
	text := flag.Bool("text", false, "print the merged patches in text form")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: patchmerge [-o merged.xtp] [-text] <patch-file>...")
		os.Exit(2)
	}

	// Phase 1: decode and validate every input. Nothing is merged until
	// all inputs are known-good, so a corrupt file can never contribute a
	// partial prefix to the output.
	type loaded struct {
		path string
		set  *patch.Set
		kind string
	}
	inputs := make([]loaded, 0, flag.NArg())
	for _, path := range flag.Args() {
		p, kind, err := loadAny(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "patchmerge: %s: %v\npatchmerge: aborting: no output written\n", path, err)
			os.Exit(1)
		}
		inputs = append(inputs, loaded{path: path, set: p, kind: kind})
	}

	// Phase 2: merge (max-combine, §6.4).
	merged := patch.New()
	for _, in := range inputs {
		merged.Merge(in.set)
		fmt.Printf("%s: %d entries (%s)\n", in.path, in.set.Len(), in.kind)
	}
	fmt.Printf("merged: %d entries (%d pads, %d front pads, %d deferrals)\n",
		merged.Len(), len(merged.Pads), len(merged.FrontPads), len(merged.Deferrals))

	if *text {
		merged.EncodeText(os.Stdout)
	}
	if *out != "" {
		// A merged file starts a fresh version lineage (version 0, epoch
		// 0), as every patch file does: versions order one server's patch
		// log, they are not comparable across origins.
		if err := codec.WriteFile(*out, codec.EncodePatches(&codec.Buffer{}, codec.ToWire(merged, 0))); err != nil {
			fmt.Fprintln(os.Stderr, "patchmerge:", err)
			os.Exit(1)
		}
		fmt.Println("written to", *out)
	}
}

// loadAny reads a patch set in any supported format, detected from its
// bytes: a frame (the XWF2 magic; any frame other than a patch set is
// refused), a JSON document, or the line-oriented text format. Other
// binary input holds a NUL byte that neither text form has, so the
// frame decoder reports why it is no patch file.
func loadAny(path string) (*patch.Set, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(trimmed) == 0:
		// A zero-byte (or whitespace-only) file is a truncated download,
		// not an empty patch set: refuse rather than silently merge
		// nothing.
		return nil, "", fmt.Errorf("empty patch file")
	case bytes.HasPrefix(data, []byte("XWF2")) || bytes.IndexByte(data, 0) >= 0:
		ps, err := codec.DecodePatches(data)
		if err != nil {
			return nil, "", err
		}
		return ps.Set(), fmt.Sprintf("frame, version %d", ps.Version), nil
	case trimmed[0] == '{':
		p, version, err := fleet.DecodePatchSet(bytes.NewReader(trimmed))
		if err != nil {
			return nil, "", err
		}
		return p, fmt.Sprintf("JSON, version %d", version), nil
	default:
		p, err := patch.DecodeText(bytes.NewReader(data))
		if err != nil {
			return nil, "", err
		}
		return p, "text", nil
	}
}
