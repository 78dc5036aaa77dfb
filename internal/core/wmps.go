// Package core is the public facade of WMPS, the Web-based Multimedia
// Presentation System the paper proposes and implements: a distributed
// Lecture-on-Demand pipeline of Record → Publish → Serve → Play, with the
// extended timed Petri net as the synchronization model underneath.
//
// A downstream user drives the whole system through this package:
//
//	sys := core.NewSystem(nil)
//	lec, _ := sys.RecordLecture(capture.LectureConfig{...})
//	res, _ := sys.PublishLecture(lec, workDir, "lecture1")
//	m, _ := sys.Replay("lecture1", player.Options{})
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/player"
	"repro/internal/publish"
	"repro/internal/streaming"
	"repro/internal/vclock"
)

// System is one WMPS deployment: a streaming server plus the recording and
// publishing pipeline around it.
type System struct {
	// Server is the embedded LOD streaming server.
	Server *streaming.Server

	clock vclock.Clock
}

// NewSystem creates a WMPS deployment on the given clock (nil = real).
func NewSystem(clock vclock.Clock) *System {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &System{Server: streaming.NewServer(clock), clock: clock}
}

// RecordLecture captures a lecture from the simulated devices.
func (s *System) RecordLecture(cfg capture.LectureConfig) (*capture.Lecture, error) {
	return capture.NewLecture(cfg)
}

// PublishLecture runs the §3 workflow: write the raw recording artifacts
// under workDir, publish them into a synchronized container, and register
// the result with the server under assetName.
func (s *System) PublishLecture(lec *capture.Lecture, workDir, assetName string) (*publish.Result, error) {
	if assetName == "" {
		return nil, errors.New("core: empty asset name")
	}
	paths, err := publish.WriteRawLecture(lec, workDir)
	if err != nil {
		return nil, err
	}
	outPath := filepath.Join(workDir, assetName+".asf")
	res, err := publish.Publish(publish.Request{
		Title:      lec.Title,
		VideoPath:  paths.VideoPath,
		SlidesDir:  paths.SlidesDir,
		OutputPath: outPath,
	})
	if err != nil {
		return nil, err
	}
	if err := s.ServeAssetFile(assetName, outPath); err != nil {
		return nil, err
	}
	return res, nil
}

// ServeAssetFile registers a stored container file with the server.
func (s *System) ServeAssetFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("core: open asset: %w", err)
	}
	defer func() {
		_ = f.Close()
	}()
	_, err = s.Server.RegisterAsset(name, asf.NewReader(f))
	return err
}

// Replay plays a registered asset directly (no network), returning the
// player's render metrics — the Fig 5(b) "replay the representation" step.
func (s *System) Replay(assetName string, opts player.Options) (*player.Metrics, error) {
	asset, ok := s.Server.Asset(assetName)
	if !ok {
		return nil, fmt.Errorf("%w: asset %q", streaming.ErrNotFound, assetName)
	}
	pr, pw := newPipe()
	go func() {
		w, err := asf.NewWriter(pw, asset.Header)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for _, p := range asset.Packets {
			if _, err := w.WritePacket(p); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		if err := w.Close(); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.CloseWithError(nil)
	}()
	if opts.Clock == nil {
		opts.Clock = s.clock
	}
	return player.New(opts).Play(pr)
}
