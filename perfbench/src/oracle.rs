//! Reference computations made apart from the program: RC-ladder and
//! diode-clamp integrators, the F1 front end's frequency response in
//! closed form, and a small FFT for tone analysis. None of this code
//! calls into the repository's crates.
//!
//! [`self_test`] checks each oracle against a textbook closed form, and
//! every benchmark run calls it before trusting an oracle.

/// Thermal voltage the program's Shockley model uses (kT/q near 300 K).
pub const VT: f64 = 0.02585;
/// Minimum conductance the program puts in parallel with a junction.
pub const GMIN: f64 = 1e-12;

/// SPICE single pulse (no period): `v1` until `delay`, linear rise to
/// `v2`, hold for `width`, linear fall back to `v1`.
#[derive(Debug, Clone, Copy)]
pub struct Pulse {
    pub v1: f64,
    pub v2: f64,
    pub delay: f64,
    pub rise: f64,
    pub fall: f64,
    pub width: f64,
}

impl Pulse {
    /// The source value at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        let tau = t - self.delay;
        if tau < 0.0 {
            self.v1
        } else if tau < self.rise {
            self.v1 + (self.v2 - self.v1) * tau / self.rise
        } else if tau < self.rise + self.width {
            self.v2
        } else if tau < self.rise + self.width + self.fall {
            self.v2 + (self.v1 - self.v2) * (tau - self.rise - self.width) / self.fall
        } else {
            self.v1
        }
    }
}

/// Solves a tridiagonal system in place (Thomas algorithm): `lo[i]`
/// multiplies `x[i-1]`, `di[i]` `x[i]`, `up[i]` `x[i+1]`. `rhs` becomes
/// the solution. The matrices here are diagonally dominant, so no
/// pivoting is needed.
pub fn thomas(lo: &[f64], di: &[f64], up: &[f64], rhs: &mut [f64], scratch: &mut Vec<f64>) {
    let n = rhs.len();
    scratch.clear();
    scratch.resize(n, 0.0);
    let mut d = di[0];
    scratch[0] = up[0] / d;
    rhs[0] /= d;
    for i in 1..n {
        d = di[i] - lo[i] * scratch[i - 1];
        scratch[i] = if i + 1 < n { up[i] / d } else { 0.0 };
        rhs[i] = (rhs[i] - lo[i] * rhs[i - 1]) / d;
    }
    for i in (0..n - 1).rev() {
        rhs[i] -= scratch[i] * rhs[i + 1];
    }
}

/// The step sequence of a fixed-step transient to `t_end`: steps of `h`
/// until the accumulated time reaches `t_end` (to 1e-18 s), the last one
/// shortened to land on it. Yields `(t_new, step)`.
pub fn fixed_steps(t_end: f64, h: f64) -> impl Iterator<Item = (f64, f64)> {
    let mut t = 0.0f64;
    std::iter::from_fn(move || {
        if t < t_end - 1e-18 {
            let step = h.min(t_end - t);
            t += step;
            Some((t, step))
        } else {
            None
        }
    })
}

/// A voltage source driving an RC ladder: `r[k]` feeds node `k` from
/// node `k-1` (node -1 is the source) and `c[k]` ties node `k` to
/// ground. Trapezoidal companion models (capacitor history current
/// `i = 2C/h·Δv − i_prev`), starting from rest, stepping as
/// [`fixed_steps`]; calls `observe(t, v)` after every step.
pub fn rc_ladder(
    r: &[f64],
    c: &[f64],
    src: &dyn Fn(f64) -> f64,
    (t_end, h): (f64, f64),
    mut observe: impl FnMut(f64, &[f64]),
) {
    let n = r.len();
    let (mut lo, mut di, mut up) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut v = vec![0.0; n];
    let mut i_c = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut scratch = Vec::new();
    for (t, step) in fixed_steps(t_end, h) {
        for i in 0..n {
            let g_left = 1.0 / r[i];
            let g_right = if i + 1 < n { 1.0 / r[i + 1] } else { 0.0 };
            lo[i] = -g_left;
            up[i] = -g_right;
            di[i] = g_left + g_right + 2.0 * c[i] / step;
            rhs[i] = 2.0 * c[i] / step * v[i] + i_c[i];
        }
        rhs[0] += src(t) / r[0];
        thomas(&lo, &di, &up, &mut rhs, &mut scratch);
        for i in 0..n {
            i_c[i] = 2.0 * c[i] / step * (rhs[i] - v[i]) - i_c[i];
            v[i] = rhs[i];
        }
        observe(t, &v);
    }
}

/// Shockley junction current and conductance, linear beyond 40·Vt the
/// way the program's model is.
pub fn diode_iv(v: f64, is_sat: f64, n: f64) -> (f64, f64) {
    let vt = n * VT;
    let v_max = 40.0 * vt;
    if v <= v_max {
        let e = (v / vt).exp();
        (is_sat * (e - 1.0), is_sat / vt * e)
    } else {
        let e = (v_max / vt).exp();
        let g = is_sat / vt * e;
        (is_sat * (e - 1.0) + g * (v - v_max), g)
    }
}

/// The clamp line: a source through `rs` onto node 0, which carries a
/// diode to ground (`is_sat`, ideality 1) and `c[0]`; nodes 1.. form an
/// RC line with `r[k-1]` from node `k-1` and `c[k]` to ground. Backward
/// Euler over [`fixed_steps`] with a full Newton solve per step (same
/// convergence test as a SPICE transient: 1 nV absolute plus 1e-6
/// relative). Calls `observe(t, v)` after every step; `None` if a step
/// fails to converge in 200 iterations.
pub fn clamp_line(
    rs: f64,
    is_sat: f64,
    r: &[f64],
    c: &[f64],
    src: &dyn Fn(f64) -> f64,
    (t_end, h): (f64, f64),
    mut observe: impl FnMut(f64, &[f64]),
) -> Option<()> {
    let n = c.len();
    let (mut lo, mut di, mut up) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut v = vec![0.0; n];
    let mut x = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut scratch = Vec::new();
    for (t, step) in fixed_steps(t_end, h) {
        let u = src(t);
        x.copy_from_slice(&v);
        let mut converged = false;
        for _ in 0..200 {
            for i in 0..n {
                let g_left = if i == 0 { 1.0 / rs } else { 1.0 / r[i - 1] };
                let g_right = if i + 1 < n { 1.0 / r[i] } else { 0.0 };
                lo[i] = if i == 0 { 0.0 } else { -g_left };
                up[i] = -g_right;
                di[i] = g_left + g_right + c[i] / step;
                rhs[i] = c[i] / step * v[i];
            }
            rhs[0] += u / rs;
            let (id, gd) = diode_iv(x[0], is_sat, 1.0);
            di[0] += gd + GMIN;
            rhs[0] -= id - gd * x[0];
            thomas(&lo, &di, &up, &mut rhs, &mut scratch);
            let done =
                (0..n).all(|i| (rhs[i] - x[i]).abs() <= 1e-9 + 1e-6 * rhs[i].abs().max(x[i].abs()));
            x.copy_from_slice(&rhs);
            if done {
                converged = true;
                break;
            }
        }
        if !converged {
            return None;
        }
        v.copy_from_slice(&x);
        observe(t, &v);
    }
    Some(())
}

/// Minimal complex arithmetic for the closed forms.
#[derive(Debug, Clone, Copy)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }
    pub fn add(self, o: C64) -> C64 {
        C64::new(self.re + o.re, self.im + o.im)
    }
    pub fn mul(self, o: C64) -> C64 {
        C64::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
    pub fn div(self, o: C64) -> C64 {
        let d = o.re * o.re + o.im * o.im;
        C64::new(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )
    }
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// Closed-form small-signal gain of the F1 front end from the tone to
/// the anti-alias filter output at `f` Hz: driver gain 4, the
/// subscriber line (50 Ω protection, 20 nF line capacitance, 130 Ω loop,
/// 600 Ω ∥ 10 nF termination) as a voltage divider, and the 20 kHz,
/// Q = 0.707 biquad `w0² / (s² + s·w0/Q + w0²)`.
pub fn f1_gain(f: f64) -> f64 {
    let w = 2.0 * std::f64::consts::PI * f;
    let s = C64::new(0.0, w);
    // Admittances.
    let y_prot = C64::new(1.0 / 50.0, 0.0);
    let y_loop = C64::new(1.0 / 130.0, 0.0);
    let y_line = s.mul(C64::new(20e-9, 0.0));
    let y_sub = C64::new(1.0 / 600.0, 0.0).add(s.mul(C64::new(10e-9, 0.0)));
    // Subscriber node divides the line node: Vs/Vl = Yloop/(Yloop+Ysub).
    let vs_over_vl = y_loop.div(y_loop.add(y_sub));
    // Admittance seen at the line node beyond the protection resistor.
    let y_right = y_loop.mul(y_sub).div(y_loop.add(y_sub));
    let vl_over_vd = y_prot.div(y_prot.add(y_line).add(y_right));
    let w0 = 2.0 * std::f64::consts::PI * 20_000.0;
    let q = 0.707;
    let bq = C64::new(w0 * w0, 0.0).div(
        s.mul(s)
            .add(s.mul(C64::new(w0 / q, 0.0)))
            .add(C64::new(w0 * w0, 0.0)),
    );
    4.0 * vl_over_vd.mul(vs_over_vl).mul(bq).abs()
}

/// In-place radix-2 FFT of `(re, im)`; the length must be a power of 2.
pub fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    assert!(n.is_power_of_two() && im.len() == n, "fft needs 2^k points");
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (s, c) = (ang * k as f64).sin_cos();
                let (a, b) = (start + k, start + k + len / 2);
                let tr = re[b] * c - im[b] * s;
                let ti = re[b] * s + im[b] * c;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len <<= 1;
    }
}

/// Tone analysis of the last power-of-two block of `x`: Hann window,
/// peak bin away from DC, and SINAD in dB (power within ±3 bins of the
/// peak against everything else above bin 3). Returns `(peak Hz, bin
/// width Hz, SINAD dB)`.
pub fn tone(x: &[f64], fs: f64) -> (f64, f64, f64) {
    let n = 1usize << (usize::BITS - 1 - x.len().leading_zeros());
    let block = &x[x.len() - n..];
    let mean = block.iter().sum::<f64>() / n as f64;
    let mut re: Vec<f64> = block
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let w = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * i as f64 / n as f64).cos();
            (v - mean) * w
        })
        .collect();
    let mut im = vec![0.0; n];
    fft(&mut re, &mut im);
    let p: Vec<f64> = (0..n / 2).map(|k| re[k] * re[k] + im[k] * im[k]).collect();
    let peak = (4..n / 2)
        .max_by(|&a, &b| p[a].total_cmp(&p[b]))
        .expect("block has bins above DC");
    let sig: f64 = p[peak.saturating_sub(3)..(peak + 4).min(n / 2)]
        .iter()
        .sum();
    let total: f64 = p[4..].iter().sum();
    let df = fs / n as f64;
    (
        peak as f64 * df,
        df,
        10.0 * (sig / (total - sig).max(1e-300)).log10(),
    )
}

/// Checks every oracle against a closed form; `Err` names the one that
/// disagrees.
pub fn self_test() -> Result<(), String> {
    // Single RC, unit step at t = 0+: v(t) = 1 − e^(−t/RC). Trapezoidal
    // error is second order in h: a 10x smaller step cuts it ~100x.
    let (rc_r, rc_c) = (1e3, 1e-9);
    let tau = rc_r * rc_c;
    let err = |h: f64| {
        let mut worst = 0.0f64;
        rc_ladder(&[rc_r], &[rc_c], &|_| 1.0, (5.0 * tau, h), |t, v| {
            worst = worst.max((v[0] - (1.0 - (-t / tau).exp())).abs());
        });
        worst
    };
    let (e1, e2) = (err(tau / 20.0), err(tau / 200.0));
    // The step at t = 0 is a discontinuity the rule sees as a ramp over
    // the first step, so the error starts at O(h) and decays; later
    // samples are O(h²).
    if !(e1 < 0.05 && e2 < e1 / 8.0) {
        return Err(format!("rc_ladder vs e^(-t/RC): errors {e1:.3e}, {e2:.3e}"));
    }
    // Backward Euler on the same RC has the exact discrete solution
    // v_n = 1 − (1 + h/RC)^(−n).
    let h = tau / 7.0;
    let mut worst = 0.0f64;
    let mut k = 0;
    clamp_line(
        rc_r,
        1e-300,
        &[],
        &[rc_c],
        &|_| 1.0,
        (40.0 * h, h),
        |_, v| {
            k += 1;
            let exact = 1.0 - (1.0 + h / tau).powi(-k);
            worst = worst.max((v[0] - exact).abs());
        },
    )
    .ok_or("clamp_line failed to converge on a linear RC")?;
    if worst > 1e-8 {
        return Err(format!("clamp_line vs BE closed form: error {worst:.3e}"));
    }
    // Diode clamp at steady state: (u − v)/Rs = Is(e^(v/Vt) − 1), solved
    // by bisection.
    let (u, rs, is_sat) = (5.0, 1e3, 1e-14);
    let f = |v: f64| (u - v) / rs - is_sat * ((v / VT).exp() - 1.0) - GMIN * v;
    let (mut a, mut b) = (0.0, 1.0);
    for _ in 0..200 {
        let m = 0.5 * (a + b);
        if f(m) > 0.0 {
            a = m;
        } else {
            b = m;
        }
    }
    let mut last = 0.0;
    clamp_line(rs, is_sat, &[], &[1e-12], &|_| u, (50e-6, 1e-6), |_, v| {
        last = v[0]
    })
    .ok_or("clamp_line failed to converge on a diode clamp")?;
    if (last - a).abs() > 1e-6 {
        return Err(format!("clamp_line diode vs bisection: {last} vs {a}"));
    }
    // F1 passband: 4 · 600/(50 + 130 + 600) at DC.
    let dc = 20.0 * f1_gain(1e-3).log10();
    let want = 20.0 * (4.0 * 600.0 / 780.0f64).log10();
    if (dc - want).abs() > 1e-6 {
        return Err(format!("f1_gain at DC: {dc} dB vs {want} dB"));
    }
    // FFT: a tone centred on bin 64 of 1024.
    let fs = 1024.0;
    let x: Vec<f64> = (0..1024)
        .map(|i| (2.0 * std::f64::consts::PI * 64.0 * i as f64 / fs).sin())
        .collect();
    let (f_peak, df, sinad) = tone(&x, fs);
    if (f_peak - 64.0).abs() > 0.5 * df || sinad < 100.0 {
        return Err(format!("tone on a pure sine: {f_peak} Hz, {sinad} dB"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_match_closed_forms() {
        self_test().unwrap();
    }

    #[test]
    fn thomas_solves_a_small_system() {
        // [2 -1 0; -1 2 -1; 0 -1 2] x = [1 0 1] → x = [1 1 1].
        let mut rhs = vec![1.0, 0.0, 1.0];
        thomas(
            &[0.0, -1.0, -1.0],
            &[2.0, 2.0, 2.0],
            &[-1.0, -1.0, 0.0],
            &mut rhs,
            &mut Vec::new(),
        );
        for v in rhs {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pulse_follows_its_corners() {
        let p = Pulse {
            v1: 0.0,
            v2: 2.0,
            delay: 1.0,
            rise: 1.0,
            fall: 1.0,
            width: 2.0,
        };
        assert_eq!(p.at(0.5), 0.0);
        assert_eq!(p.at(1.5), 1.0);
        assert_eq!(p.at(3.0), 2.0);
        assert_eq!(p.at(4.5), 1.0);
        assert_eq!(p.at(9.0), 0.0);
    }
}
