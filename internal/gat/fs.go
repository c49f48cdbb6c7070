package gat

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"jungle/internal/vnet"
)

// ErrNoFile is returned when reading a missing file.
var ErrNoFile = errors.New("gat: no such file")

// FS is a virtual per-host filesystem: the substrate for JavaGAT's file
// management ("input and output files should automatically be copied to
// where they are needed" — §4.3 requirement 1). Copies between hosts cross
// the virtual network and are accounted as "file" traffic.
type FS struct {
	net *vnet.Network

	mu    sync.Mutex
	files map[string]map[string][]byte // host -> path -> content
}

// NewFS returns an empty filesystem over the network.
func NewFS(net *vnet.Network) *FS {
	return &FS{net: net, files: make(map[string]map[string][]byte)}
}

// Write stores content at host:path.
func (f *FS) Write(host, path string, content []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	hostFiles, ok := f.files[host]
	if !ok {
		hostFiles = make(map[string][]byte)
		f.files[host] = hostFiles
	}
	cp := make([]byte, len(content))
	copy(cp, content)
	hostFiles[path] = cp
}

// Read returns the content of host:path.
func (f *FS) Read(host, path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	content, ok := f.files[host][path]
	if !ok {
		return nil, fmt.Errorf("%w: %s:%s", ErrNoFile, host, path)
	}
	cp := make([]byte, len(content))
	copy(cp, content)
	return cp, nil
}

// Copy moves srcHost:srcPath to dstHost:dstPath across the virtual network,
// returning the virtual transfer duration. Same-host copies are free.
func (f *FS) Copy(srcHost, srcPath, dstHost, dstPath string) (time.Duration, error) {
	content, err := f.Read(srcHost, srcPath)
	if err != nil {
		return 0, err
	}
	var cost time.Duration
	if srcHost != dstHost {
		path, err := f.net.Route(srcHost, dstHost)
		if err != nil {
			return 0, fmt.Errorf("gat: copy %s:%s -> %s:%s: %w", srcHost, srcPath, dstHost, dstPath, err)
		}
		cost = path.TransferTime(len(content))
		f.net.Cell(srcHost, dstHost, "file").Add(len(content))
	}
	f.Write(dstHost, dstPath, content)
	return cost, nil
}
