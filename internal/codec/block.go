package codec

import "math"

// Transform-block coding: DCT -> frequency-ramped uniform quantisation ->
// zig-zag run-length -> Exp-Golomb entropy coding, and the exact inverse.
// Every block is independently decodable given its bit position, and the
// encoder reconstructs through the same inverse path the decoder uses, so
// prediction never drifts.

// encodeBlock transforms, quantises and entropy-codes one 8x8 sample block
// (values already centred, e.g. pixel-128 for intra or residuals for
// inter). It returns the reconstructed (dequantised) samples so the caller
// can maintain the reference frame.
//
// It is split into quantiseBlock (DCT + quantisation) and
// entropyCodeBlock (bitstream + reconstruction) so the row coder can
// batch the numeric phase across a whole macroblock row while the
// per-block math — and therefore the bitstream — stays exactly this.
func encodeBlock(w *bitWriter, samples *[64]float64, q float64, recon *[64]float64) {
	var quant [64]int32
	nonzero := quantiseBlock(samples, q, &quant)
	entropyCodeBlock(w, &quant, nonzero, q, recon)
}

// quantiseBlock runs the forward transform and frequency-ramped
// quantisation of encodeBlock, filling quant in zig-zag order and
// returning the index of the last nonzero coefficient (-1 for an
// all-zero block).
func quantiseBlock(samples *[64]float64, q float64, quant *[64]int32) int {
	var coeff [64]float64
	fdct8(samples, &coeff)
	nonzero := -1
	invQ := 1 / q
	for zz := 0; zz < 64; zz++ {
		// Round half away from zero without a data-dependent branch
		// (-0 maps to 0). The two multiplies stay separate: one folded
		// factor would round differently.
		v := coeff[zigzag[zz]] * invQ * invQuantRamp[zz]
		iv := int32(v + math.Copysign(0.5, v))
		quant[zz] = iv
		if iv != 0 {
			nonzero = zz
		}
	}
	return nonzero
}

// entropyCodeBlock writes the coded-block flag and (run, level) stream of
// a quantised block and reconstructs the dequantised samples.
func entropyCodeBlock(w *bitWriter, quant *[64]int32, nonzero int, q float64, recon *[64]float64) {
	// Coded-block flag.
	if nonzero < 0 {
		w.writeBit(0)
		for i := range recon {
			recon[i] = 0
		}
		return
	}
	w.writeBit(1)
	// (run, level) pairs over the zig-zag order, terminated by run-to-end.
	zz := 0
	for zz <= nonzero {
		run := 0
		for quant[zz] == 0 {
			run++
			zz++
		}
		w.writeUE(uint64(run))
		w.writeSE(int64(quant[zz]))
		zz++
	}
	// End-of-block marker: an impossible run.
	w.writeUE(64)

	// Reconstruction (dequantise + inverse transform).
	var deq [64]float64
	for p := 0; p < 64; p++ {
		if quant[p] != 0 {
			deq[zigzag[p]] = float64(quant[p]) * quantStep(q, p)
		}
	}
	idct8(&deq, recon)
}

// decodeBlock reverses encodeBlock into the reconstructed sample block.
func decodeBlock(r *bitReader, q float64, recon *[64]float64) error {
	for i := range recon {
		recon[i] = 0
	}
	coded, err := r.readBit()
	if err != nil {
		return err
	}
	if coded == 0 {
		return nil
	}
	var deq [64]float64
	zz := 0
	for {
		run, err := r.readUE()
		if err != nil {
			return err
		}
		if run >= 64 {
			break // end of block
		}
		zz += int(run)
		if zz >= 64 {
			return errCorrupt
		}
		level, err := r.readSE()
		if err != nil {
			return err
		}
		deq[zigzag[zz]] = float64(level) * quantStep(q, zz)
		zz++
		if zz > 64 {
			return errCorrupt
		}
	}
	idct8(&deq, recon)
	return nil
}

// clampByte converts a float sample to a byte with saturation.
func clampByte(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}
