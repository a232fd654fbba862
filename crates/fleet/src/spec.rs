//! Fleet topology: which devices exist and how many SMs each has.
//!
//! A [`FleetSpec`] is a validated, ordered list of [`DeviceProfile`]s
//! sharing one base [`GpuConfig`] (clock, cache geometry, DRAM model);
//! heterogeneity is expressed as per-device SM capacity, which is the
//! axis the paper's allocation problem actually varies. The spec
//! round-trips through the workspace's wire kernel
//! ([`gcs_sim::wire`]) and never panics on malformed input — every
//! failure is a typed [`FleetError`].

use std::fmt::Write as _;

use gcs_sim::config::GpuConfig;
use gcs_sim::wire::{push_str_escaped, Scan, WireError};

/// One device in the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Stable, unique name (e.g. `"gpu0"`). Kept free of `"` and `\` so
    /// it reads verbatim in the fleet report.
    pub id: String,
    /// SM capacity (≥ 1). The device config is the fleet's base
    /// [`GpuConfig`] with `num_sms` replaced by this.
    pub num_sms: u32,
}

/// Typed validation and parse failures for fleet specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The spec listed no devices.
    Empty,
    /// Two devices share an id.
    DuplicateId(String),
    /// A device declared zero SMs.
    ZeroSms(String),
    /// Structurally invalid spec text or an invalid device id.
    Malformed(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Empty => write!(f, "fleet spec lists no devices"),
            FleetError::DuplicateId(id) => write!(f, "duplicate device id {id:?}"),
            FleetError::ZeroSms(id) => write!(f, "device {id:?} declares zero SMs"),
            FleetError::Malformed(why) => write!(f, "malformed fleet spec: {why}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// A validated heterogeneous fleet: ≥ 1 devices, unique ids, every
/// device with ≥ 1 SMs. Device order is significant (dispatch and
/// tie-breaking use the index) and preserved by the JSON round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    devices: Vec<DeviceProfile>,
}

impl FleetSpec {
    /// Validates `devices` into a spec.
    ///
    /// # Errors
    ///
    /// [`FleetError::Empty`] with no devices, [`FleetError::ZeroSms`]
    /// on a zero-capacity device, [`FleetError::DuplicateId`] on a
    /// repeated id, and [`FleetError::Malformed`] on an empty id or an
    /// id containing `"` / `\`.
    pub fn new(devices: Vec<DeviceProfile>) -> Result<FleetSpec, FleetError> {
        if devices.is_empty() {
            return Err(FleetError::Empty);
        }
        for (i, d) in devices.iter().enumerate() {
            if d.id.is_empty() {
                return Err(FleetError::Malformed("device id must be non-empty".into()));
            }
            if d.id.contains('"') || d.id.contains('\\') {
                return Err(FleetError::Malformed(format!(
                    "device id {:?} contains a quote or backslash",
                    d.id
                )));
            }
            if d.num_sms == 0 {
                return Err(FleetError::ZeroSms(d.id.clone()));
            }
            if devices[..i].iter().any(|e| e.id == d.id) {
                return Err(FleetError::DuplicateId(d.id.clone()));
            }
        }
        Ok(FleetSpec { devices })
    }

    /// A homogeneous fleet of `count` devices with `num_sms` SMs each,
    /// ids `gpu0`, `gpu1`, …
    ///
    /// # Errors
    ///
    /// [`FleetError::Empty`] when `count` is 0 and
    /// [`FleetError::ZeroSms`] when `num_sms` is 0.
    pub fn homogeneous(count: usize, num_sms: u32) -> Result<FleetSpec, FleetError> {
        FleetSpec::new(
            (0..count)
                .map(|i| DeviceProfile {
                    id: format!("gpu{i}"),
                    num_sms,
                })
                .collect(),
        )
    }

    /// The devices, in spec order.
    pub fn devices(&self) -> &[DeviceProfile] {
        &self.devices
    }

    /// Number of devices (≥ 1).
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false — an empty spec cannot be constructed. Present for
    /// clippy's `len`-without-`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Largest SM capacity in the fleet.
    pub fn max_sms(&self) -> u32 {
        self.devices.iter().map(|d| d.num_sms).max().expect("non-empty fleet")
    }

    /// The concrete [`GpuConfig`] of device `idx`: the shared `base`
    /// with `num_sms` replaced by the device's capacity.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn device_config(&self, base: &GpuConfig, idx: usize) -> GpuConfig {
        let mut cfg = base.clone();
        cfg.num_sms = self.devices[idx].num_sms;
        cfg
    }

    /// Compact single-line JSON:
    /// `{"devices":[{"id":"gpu0","num_sms":8},...]}`. Deterministic —
    /// identical specs render byte-identically.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(16 + self.devices.len() * 28);
        s.push_str("{\"devices\":[");
        for (i, d) in self.devices.iter().enumerate() {
            s.push_str(if i == 0 { "{\"id\":\"" } else { ",{\"id\":\"" });
            push_str_escaped(&mut s, &d.id);
            let _ = write!(s, "\",\"num_sms\":{}}}", d.num_sms);
        }
        s.push_str("]}");
        s
    }

    /// Parses the format [`FleetSpec::to_json`] writes (whitespace
    /// between tokens is tolerated), then validates like
    /// [`FleetSpec::new`].
    ///
    /// # Errors
    ///
    /// [`FleetError::Malformed`] on structural problems, plus every
    /// validation error of [`FleetSpec::new`].
    pub fn from_json(text: &str) -> Result<FleetSpec, FleetError> {
        let devices = scan_devices(text).map_err(|e| FleetError::Malformed(e.to_string()))?;
        FleetSpec::new(devices)
    }
}

fn scan_devices(text: &str) -> Result<Vec<DeviceProfile>, WireError> {
    let mut s = Scan::new(text);
    s.lit("{")?;
    s.key("devices")?;
    s.lit("[")?;
    let mut devices = Vec::new();
    while s.item("]", devices.is_empty())? {
        s.lit("{")?;
        s.key("id")?;
        let id = s.string()?;
        s.lit(",")?;
        s.key("num_sms")?;
        let num_sms = u32::try_from(s.u64()?)
            .map_err(|_| WireError::Corrupt(format!("num_sms of device {id:?} out of range")))?;
        s.lit("}")?;
        devices.push(DeviceProfile { id, num_sms });
    }
    s.lit("}")?;
    s.end()?;
    Ok(devices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hetero() -> FleetSpec {
        FleetSpec::new(vec![
            DeviceProfile { id: "gpu0".into(), num_sms: 8 },
            DeviceProfile { id: "gpu1".into(), num_sms: 15 },
            DeviceProfile { id: "gpu2".into(), num_sms: 30 },
        ])
        .expect("valid spec")
    }

    #[test]
    fn validation_is_typed_and_never_panics() {
        assert_eq!(FleetSpec::new(vec![]), Err(FleetError::Empty));
        let zero = FleetSpec::new(vec![DeviceProfile { id: "a".into(), num_sms: 0 }]);
        assert_eq!(zero, Err(FleetError::ZeroSms("a".into())));
        let dup = FleetSpec::new(vec![
            DeviceProfile { id: "a".into(), num_sms: 4 },
            DeviceProfile { id: "a".into(), num_sms: 8 },
        ]);
        assert_eq!(dup, Err(FleetError::DuplicateId("a".into())));
        assert!(matches!(
            FleetSpec::new(vec![DeviceProfile { id: String::new(), num_sms: 4 }]),
            Err(FleetError::Malformed(_))
        ));
        assert!(matches!(
            FleetSpec::new(vec![DeviceProfile { id: "a\"b".into(), num_sms: 4 }]),
            Err(FleetError::Malformed(_))
        ));
    }

    #[test]
    fn json_round_trips_exactly() {
        let spec = hetero();
        let json = spec.to_json();
        assert_eq!(
            json,
            "{\"devices\":[{\"id\":\"gpu0\",\"num_sms\":8},\
             {\"id\":\"gpu1\",\"num_sms\":15},{\"id\":\"gpu2\",\"num_sms\":30}]}"
        );
        let back = FleetSpec::from_json(&json).expect("parse");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json);
    }

    /// Ids with control characters round-trip through *valid* JSON
    /// (escaped on the way out, unescaped on the way in); ids with a
    /// quote or backslash never get that far.
    #[test]
    fn hostile_ids_round_trip_escaped_or_are_rejected() {
        for c in (0u8..0x20).map(char::from) {
            let id = format!("gpu{c}0");
            let spec = FleetSpec::new(vec![DeviceProfile { id, num_sms: 4 }]).expect("legal id");
            let json = spec.to_json();
            assert!(json.bytes().all(|b| b >= 0x20), "raw control byte in {json:?}");
            assert_eq!(FleetSpec::from_json(&json), Ok(spec));
        }
        for c in ['"', '\\'] {
            let id = format!("gpu{c}0");
            assert!(matches!(
                FleetSpec::new(vec![DeviceProfile { id, num_sms: 4 }]),
                Err(FleetError::Malformed(_))
            ));
        }
    }

    #[test]
    fn parser_tolerates_whitespace_and_rejects_garbage() {
        let loose = "{ \"devices\" : [ { \"id\" : \"a\" , \"num_sms\" : 4 } ] }";
        let spec = FleetSpec::from_json(loose).expect("tolerant parse");
        assert_eq!(spec.devices()[0].num_sms, 4);
        for garbage in [
            "",
            "{}",
            "{\"devices\":}",
            "{\"devices\":[{\"id\":\"a\"}]}",
            "{\"devices\":[{\"id\":\"a\",\"num_sms\":}]}",
            "{\"devices\":[{\"id\":\"a\",\"num_sms\":4}]} trailing",
            "{\"devices\":[{\"id\":\"a\",\"num_sms\":99999999999999999999}]}",
        ] {
            assert!(
                matches!(FleetSpec::from_json(garbage), Err(FleetError::Malformed(_))),
                "accepted {garbage:?}"
            );
        }
        // Structurally valid JSON with invalid content surfaces the
        // validation error, not Malformed.
        assert_eq!(
            FleetSpec::from_json("{\"devices\":[{\"id\":\"a\",\"num_sms\":0}]}"),
            Err(FleetError::ZeroSms("a".into()))
        );
    }

    #[test]
    fn device_config_overrides_only_sm_count() {
        let spec = hetero();
        let base = GpuConfig::test_small();
        let cfg = spec.device_config(&base, 2);
        assert_eq!(cfg.num_sms, 30);
        let mut back = cfg.clone();
        back.num_sms = base.num_sms;
        assert_eq!(back, base, "everything but num_sms is shared");
    }

    #[test]
    fn homogeneous_names_devices_in_order() {
        let spec = FleetSpec::homogeneous(3, 8).expect("spec");
        let ids: Vec<&str> = spec.devices().iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, ["gpu0", "gpu1", "gpu2"]);
        assert_eq!(spec.max_sms(), 8);
        assert_eq!(FleetSpec::homogeneous(0, 8), Err(FleetError::Empty));
    }
}
