//! Channel parameterization: propagation environments and radio constants.

use std::fmt;

/// Propagation environment classes from Al-Hourani et al. (2014).
///
/// Each class fixes the S-curve constants `(a, b)` of the LoS probability
/// and the mean excess losses `(η_LoS, η_NLoS)` in dB added on top of the
/// free-space pathloss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// Open suburban terrain: high LoS probability, low excess loss.
    Suburban,
    /// Typical urban terrain (the paper's disaster-zone setting).
    Urban,
    /// Dense urban terrain.
    DenseUrban,
    /// High-rise urban canyons: lowest LoS probability, highest loss.
    Highrise,
}

impl Environment {
    /// The `(a, b)` constants of the LoS-probability S-curve.
    pub fn s_curve(self) -> (f64, f64) {
        match self {
            Environment::Suburban => (4.88, 0.43),
            Environment::Urban => (9.61, 0.16),
            Environment::DenseUrban => (12.08, 0.11),
            Environment::Highrise => (27.23, 0.08),
        }
    }

    /// The `(η_LoS, η_NLoS)` mean excess losses in dB.
    pub fn excess_loss_db(self) -> (f64, f64) {
        match self {
            Environment::Suburban => (0.1, 21.0),
            Environment::Urban => (1.0, 20.0),
            Environment::DenseUrban => (1.6, 23.0),
            Environment::Highrise => (2.3, 34.0),
        }
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Environment::Suburban => "suburban",
            Environment::Urban => "urban",
            Environment::DenseUrban => "dense-urban",
            Environment::Highrise => "highrise",
        };
        f.write_str(s)
    }
}

/// All scalar constants of the air-to-ground channel model.
///
/// Construct with [`ChannelParams::builder`]; defaults reproduce the
/// evaluation setup of the paper (urban environment, 2 GHz carrier,
/// 180 kHz OFDMA sub-band, −114 dBm noise floor).
///
/// # Examples
///
/// ```
/// use uavnet_channel::{ChannelParams, Environment};
/// let p = ChannelParams::builder()
///     .environment(Environment::Suburban)
///     .carrier_hz(2.4e9)
///     .build();
/// assert_eq!(p.carrier_hz(), 2.4e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelParams {
    s_curve_a: f64,
    s_curve_b: f64,
    eta_los_db: f64,
    eta_nlos_db: f64,
    carrier_hz: f64,
    noise_dbm: f64,
    bandwidth_hz: f64,
}

impl ChannelParams {
    /// Starts a builder preloaded with the paper's defaults.
    pub fn builder() -> ChannelParamsBuilder {
        ChannelParamsBuilder::default()
    }

    /// LoS S-curve constant `a`.
    #[inline]
    pub fn s_curve_a(&self) -> f64 {
        self.s_curve_a
    }

    /// LoS S-curve constant `b`.
    #[inline]
    pub fn s_curve_b(&self) -> f64 {
        self.s_curve_b
    }

    /// Mean LoS excess loss `η_LoS` in dB.
    #[inline]
    pub fn eta_los_db(&self) -> f64 {
        self.eta_los_db
    }

    /// Mean NLoS excess loss `η_NLoS` in dB.
    #[inline]
    pub fn eta_nlos_db(&self) -> f64 {
        self.eta_nlos_db
    }

    /// Carrier frequency `f_c` in Hz.
    #[inline]
    pub fn carrier_hz(&self) -> f64 {
        self.carrier_hz
    }

    /// Noise power `P_N` in dBm over the sub-band.
    #[inline]
    pub fn noise_dbm(&self) -> f64 {
        self.noise_dbm
    }

    /// Per-user channel bandwidth `B_w` in Hz (e.g. one OFDMA sub-band).
    #[inline]
    pub fn bandwidth_hz(&self) -> f64 {
        self.bandwidth_hz
    }
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams::builder().build()
    }
}

/// Builder for [`ChannelParams`].
#[derive(Debug, Clone)]
pub struct ChannelParamsBuilder {
    environment: Environment,
    s_curve: Option<(f64, f64)>,
    excess: Option<(f64, f64)>,
    carrier_hz: f64,
    noise_dbm: f64,
    bandwidth_hz: f64,
}

impl Default for ChannelParamsBuilder {
    fn default() -> Self {
        ChannelParamsBuilder {
            environment: Environment::Urban,
            s_curve: None,
            excess: None,
            carrier_hz: 2.0e9,
            // Thermal noise over 180 kHz (−174 dBm/Hz + 52.6 dB) plus a
            // 7 dB receiver noise figure.
            noise_dbm: -114.0,
            bandwidth_hz: 180e3,
        }
    }
}

impl ChannelParamsBuilder {
    /// Selects a propagation [`Environment`] (sets the S-curve and excess
    /// losses unless explicitly overridden).
    pub fn environment(&mut self, env: Environment) -> &mut Self {
        self.environment = env;
        self
    }

    /// Overrides the LoS S-curve constants `(a, b)`.
    pub fn s_curve(&mut self, a: f64, b: f64) -> &mut Self {
        self.s_curve = Some((a, b));
        self
    }

    /// Overrides the excess losses `(η_LoS, η_NLoS)` in dB.
    pub fn excess_loss_db(&mut self, los: f64, nlos: f64) -> &mut Self {
        self.excess = Some((los, nlos));
        self
    }

    /// Sets the carrier frequency in Hz.
    pub fn carrier_hz(&mut self, hz: f64) -> &mut Self {
        self.carrier_hz = hz;
        self
    }

    /// Sets the noise power in dBm over the sub-band.
    pub fn noise_dbm(&mut self, dbm: f64) -> &mut Self {
        self.noise_dbm = dbm;
        self
    }

    /// Sets the per-user bandwidth `B_w` in Hz.
    pub fn bandwidth_hz(&mut self, hz: f64) -> &mut Self {
        self.bandwidth_hz = hz;
        self
    }

    /// Finalizes the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the carrier frequency or bandwidth is not strictly
    /// positive and finite (programmer error, not data error).
    pub fn build(&self) -> ChannelParams {
        assert!(
            self.carrier_hz.is_finite() && self.carrier_hz > 0.0,
            "carrier frequency must be positive, got {}",
            self.carrier_hz
        );
        assert!(
            self.bandwidth_hz.is_finite() && self.bandwidth_hz > 0.0,
            "bandwidth must be positive, got {}",
            self.bandwidth_hz
        );
        let (a, b) = self.s_curve.unwrap_or_else(|| self.environment.s_curve());
        let (elos, enlos) = self
            .excess
            .unwrap_or_else(|| self.environment.excess_loss_db());
        ChannelParams {
            s_curve_a: a,
            s_curve_b: b,
            eta_los_db: elos,
            eta_nlos_db: enlos,
            carrier_hz: self.carrier_hz,
            noise_dbm: self.noise_dbm,
            bandwidth_hz: self.bandwidth_hz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_urban_2ghz() {
        let p = ChannelParams::default();
        assert_eq!(p.s_curve_a(), 9.61);
        assert_eq!(p.s_curve_b(), 0.16);
        assert_eq!(p.carrier_hz(), 2.0e9);
        assert_eq!(p.bandwidth_hz(), 180e3);
    }

    #[test]
    fn environment_tables_are_monotone() {
        // LoS probability parameter `a` grows with urban density
        // (harder environments need higher elevation for LoS).
        let envs = [
            Environment::Suburban,
            Environment::Urban,
            Environment::DenseUrban,
            Environment::Highrise,
        ];
        let mut last_a = 0.0;
        for e in envs {
            let (a, b) = e.s_curve();
            assert!(a > last_a, "{e}: a should increase");
            assert!(b > 0.0);
            last_a = a;
            let (l, n) = e.excess_loss_db();
            assert!(n > l, "{e}: NLoS must lose more than LoS");
        }
    }

    #[test]
    fn builder_overrides_take_precedence() {
        let p = ChannelParams::builder()
            .environment(Environment::Highrise)
            .s_curve(1.0, 2.0)
            .excess_loss_db(3.0, 4.0)
            .noise_dbm(-100.0)
            .build();
        assert_eq!(p.s_curve_a(), 1.0);
        assert_eq!(p.s_curve_b(), 2.0);
        assert_eq!(p.eta_los_db(), 3.0);
        assert_eq!(p.eta_nlos_db(), 4.0);
        assert_eq!(p.noise_dbm(), -100.0);
    }

    #[test]
    #[should_panic(expected = "carrier frequency")]
    fn builder_rejects_bad_carrier() {
        let _ = ChannelParams::builder().carrier_hz(-1.0).build();
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn builder_rejects_bad_bandwidth() {
        let _ = ChannelParams::builder().bandwidth_hz(0.0).build();
    }

    #[test]
    fn display_names() {
        assert_eq!(Environment::Urban.to_string(), "urban");
        assert_eq!(Environment::Highrise.to_string(), "highrise");
    }
}
