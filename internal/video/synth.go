package video

import (
	"math"

	"repro/internal/stats"
)

// MotionLevel is the content class of Section 4.3.2 / Fig. 2: the paper
// groups its reference clips into low, medium and high motion and observes
// that the class determines both the GOP byte structure and the decoder's
// loss sensitivity.
type MotionLevel int

// Motion classes.
const (
	MotionLow MotionLevel = iota
	MotionMedium
	MotionHigh
)

// String names the class.
func (m MotionLevel) String() string {
	switch m {
	case MotionLow:
		return "low"
	case MotionMedium:
		return "medium"
	case MotionHigh:
		return "high"
	default:
		return "unknown"
	}
}

// SceneConfig parameterises the synthetic clip generator.
type SceneConfig struct {
	W, H   int
	Frames int
	Motion MotionLevel
	Seed   uint64
	// Objects overrides the number of moving objects (0 = per-class
	// default).
	Objects int
}

// DefaultScene returns the configuration used throughout the reproduction:
// a 300-frame CIF clip (the paper's clips are 300 frames at 30 fps).
func DefaultScene(m MotionLevel, seed uint64) SceneConfig {
	return SceneConfig{W: CIFWidth, H: CIFHeight, Frames: 300, Motion: m, Seed: seed}
}

type object struct {
	x, y   float64
	vx, vy float64
	w, h   int
	tone   byte
	phase  float64
}

// Generate renders the synthetic clip: a textured static background with
// moving textured objects, plus (for high motion) global camera pan. The
// per-class velocities are chosen so that the frame-difference statistics
// match the qualitative split of the paper's low/medium/high groups: low
// motion changes a few percent of pixels per frame, high motion changes
// most of them.
func Generate(cfg SceneConfig) []*Frame {
	if cfg.W == 0 {
		cfg.W, cfg.H = CIFWidth, CIFHeight
	}
	if cfg.Frames <= 0 {
		cfg.Frames = 300
	}
	rng := stats.NewRNG(cfg.Seed)
	var speed, panSpeed float64
	objects := cfg.Objects
	switch cfg.Motion {
	case MotionLow:
		speed, panSpeed = 0.6, 0
		if objects == 0 {
			objects = 2
		}
	case MotionMedium:
		speed, panSpeed = 3.0, 0.4
		if objects == 0 {
			objects = 4
		}
	default: // MotionHigh
		speed, panSpeed = 12.0, 5.0
		if objects == 0 {
			objects = 7
		}
	}
	// Object counts are tuned for CIF; scale down for smaller test frames
	// so the scene does not degenerate into full-frame occlusion churn.
	if scale := float64(cfg.W*cfg.H) / float64(CIFWidth*CIFHeight); scale < 1 {
		objects = int(float64(objects)*scale + 0.5)
		if objects < 2 {
			objects = 2
		}
	}
	objs := make([]object, objects)
	for i := range objs {
		angle := rng.Float64() * 2 * math.Pi
		objs[i] = object{
			x:     rng.Float64() * float64(cfg.W),
			y:     rng.Float64() * float64(cfg.H),
			vx:    speed * math.Cos(angle),
			vy:    speed * math.Sin(angle),
			w:     24 + rng.Intn(64),
			h:     24 + rng.Intn(48),
			tone:  byte(60 + rng.Intn(160)),
			phase: rng.Float64() * 2 * math.Pi,
		}
	}
	// Background texture: low-frequency gradient plus band-limited value
	// noise (bilinear interpolation of a coarse random grid). Real video
	// textures are band-limited; per-pixel white noise would make the SAD
	// surface basin-free and defeat any real motion estimator.
	const noiseGrid = 8
	gw, gh := cfg.W/noiseGrid+2, cfg.H/noiseGrid+2
	grid := make([]float64, gw*gh)
	for i := range grid {
		grid[i] = rng.Float64() * 28
	}
	noise := make([]byte, cfg.W*cfg.H)
	for y := 0; y < cfg.H; y++ {
		gy := y / noiseGrid
		fy := float64(y%noiseGrid) / noiseGrid
		for x := 0; x < cfg.W; x++ {
			gx := x / noiseGrid
			fx := float64(x%noiseGrid) / noiseGrid
			v := grid[gy*gw+gx]*(1-fx)*(1-fy) +
				grid[gy*gw+gx+1]*fx*(1-fy) +
				grid[(gy+1)*gw+gx]*(1-fx)*fy +
				grid[(gy+1)*gw+gx+1]*fx*fy
			noise[y*cfg.W+x] = byte(v)
		}
	}

	frames := make([]*Frame, cfg.Frames)
	pan := 0.0
	var shimmer []byte // per-column texture of the current object
	for fi := 0; fi < cfg.Frames; fi++ {
		f := NewFrame(cfg.W, cfg.H)
		// Background with pan offset. The pan never runs backwards, so
		// the noise column is (x+off) mod W, walked without a division.
		off := int(pan)
		for y := 0; y < cfg.H; y++ {
			row := f.Y[y*cfg.W : (y+1)*cfg.W]
			noiseRow := noise[y*cfg.W : (y+1)*cfg.W]
			gy := 40 + (y%256)/3
			nx := off % cfg.W
			for x := range row {
				sx := x + off
				row[x] = byte(gy+(sx%256)/2) + noiseRow[nx]
				if nx++; nx == cfg.W {
					nx = 0
				}
			}
		}
		// Objects.
		for oi := range objs {
			o := &objs[oi]
			ox, oy := int(o.x), int(o.y)
			// The shimmer term of the texture depends on the column only.
			shimmer = shimmer[:0]
			for dx := 0; dx < o.w; dx++ {
				shimmer = append(shimmer, byte(4*math.Sin(o.phase+float64(dx)/7)))
			}
			for dy := 0; dy < o.h; dy++ {
				y := oy + dy
				if y < 0 || y >= cfg.H {
					continue
				}
				for dx := 0; dx < o.w; dx++ {
					x := ox + dx
					if x < 0 || x >= cfg.W {
						continue
					}
					// Textured fill so intra coding has real content; the
					// texture rides with the object (pure translation) so
					// motion compensation can track it, with only a slow
					// shimmer so P-frames stay small relative to I-frames.
					tex := byte((dx*dy)%32) + shimmer[dx]
					f.Y[y*cfg.W+x] = o.tone + tex
				}
			}
			// Chroma block for the object (subsampled planes).
			cw := cfg.W / 2
			for dy := 0; dy < o.h/2; dy++ {
				y := oy/2 + dy
				if y < 0 || y >= cfg.H/2 {
					continue
				}
				for dx := 0; dx < o.w/2; dx++ {
					x := ox/2 + dx
					if x < 0 || x >= cw {
						continue
					}
					f.Cb[y*cw+x] = o.tone/2 + 64
					f.Cr[y*cw+x] = 255 - o.tone
				}
			}
			// Advance, bouncing at the borders: smooth translation keeps
			// the content motion-compensable, so P-frame size reflects
			// motion level rather than teleport artefacts.
			o.x += o.vx
			o.y += o.vy
			if o.x < -float64(o.w)/2 || o.x+float64(o.w)/2 > float64(cfg.W) {
				o.vx = -o.vx
				o.x += 2 * o.vx
			}
			if o.y < -float64(o.h)/2 || o.y+float64(o.h)/2 > float64(cfg.H) {
				o.vy = -o.vy
				o.y += 2 * o.vy
			}
			o.phase += 0.05
		}
		pan += panSpeed
		frames[fi] = f
	}
	return frames
}
