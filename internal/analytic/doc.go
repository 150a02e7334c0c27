// Package analytic implements the paper's mathematical framework (Section
// 4): the 2-state Markov-modulated Poisson arrival process that models
// I-frame bursts and P-frame singletons, the service-time moments and
// Laplace-Stieltjes transform built from the encryption/backoff/
// transmission components of Eq. (3), the Heffes-Lucantoni solve of the
// resulting 2-MMPP/G/1 sender queue (the mean delay of Eq. 19), and the
// eavesdropper distortion model of Eqs. (20)-(28).
//
// Terminology follows the paper: an encryption policy P determines which
// packets are encrypted; the framework predicts (i) the mean per-packet
// delay at the sender under P and (ii) the PSNR of the video an
// eavesdropper can reconstruct under P.
//
// Equation index — where each numbered equation of the paper lives in
// this package:
//
//	Eq. (1)  R, Λ of the 2-MMPP                    MMPP2 (P1, P2, Lambda1, Lambda2)
//	Eq. (2)  equilibrium vector π                  MMPP2.Stationary
//	Eq. (3)  service decomposition T=Te+Tb+Tt      ServiceParams (moments, LST)
//	Eq. (4)  encryption-time mixture               ServiceParams.encMoments / lstEnc
//	Eq. (5)  LST of Te                             ServiceParams.lstEnc
//	Eq. (6)  geometric collision count             stats.RNG.Geometric (sampling),
//	                                               ServiceParams.backoffMoments (moments)
//	Eq. (7)  LST of Tb                             ServiceParams.lstBackoff
//	Eq. (8)  transmission-time mixture             ServiceParams.txMoments
//	Eq. (9)  LST of Tt                             ServiceParams.lstTx
//	Eq. (10) product-form service LST              ServiceParams.LST
//	Eq. (12) constant encryption LST               lstEnc with zero sigmas (tested)
//	Eq. (14) constant transmission LST             lstTx with zero sigmas (tested)
//	Eq. (15-16) Gaussian variation model           ServiceParams sigma fields
//	Eq. (17-18) Gaussian LSTs                      gaussLST via lstEnc/lstTx (truncated
//	                                               at zero so it stays a valid LST)
//	Eq. (19) mean queueing delay E[W]              SolveQueue: 2x2 first-passage matrix
//	                                               G by iteration, then E[W] from the
//	                                               derivatives of the waiting-time
//	                                               transform (solve2); Pollaczek-
//	                                               Khinchine in the Poisson limit
//	Eq. (20) frame success rate                    FrameSuccess
//	Eq. (21) intra-GOP distortion ramp             IntraGOPDistortion
//	Eq. (22) first-loss position probabilities     DistortionModel.ExpectedDistortion
//	Eq. (23-26) GOP state chain                    DistortionModel.ExpectedDistortion
//	                                               (reference-distance DP)
//	Eq. (27) average flow distortion               DistortionModel.ExpectedDistortion
//	Eq. (28) PSNR mapping                          PSNRFromDistortion
//
// The packet success rate p_s of Section 4.1 comes from the companion
// package internal/wifi (SolveDCF); the µAh→W conversion of Eq. (29)
// lives in internal/energy.
package analytic
