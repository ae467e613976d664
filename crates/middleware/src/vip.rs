//! Virtual IP addresses.
//!
//! The MicroGrid gives every virtual host a virtual IP; all name- and
//! address-bearing library calls are intercepted and translated through a
//! mapping table (paper §2.2.1). Virtual addresses live in the 1.0.0.0/8
//! block, matching the paper's examples (`nn=1.11.11.0`); a host's is a
//! function of its network node (see `HostEntry::vip`).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A virtual IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VirtIp(pub u32);

impl VirtIp {
    /// Compose from dotted-quad octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        VirtIp(u32::from_be_bytes([a, b, c, d]))
    }

    /// Dotted-quad octets.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Parse `a.b.c.d`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut it = s.trim().split('.');
        let mut oct = [0u8; 4];
        for slot in &mut oct {
            *slot = it.next()?.parse().ok()?;
        }
        if it.next().is_some() {
            return None;
        }
        Some(VirtIp(u32::from_be_bytes(oct)))
    }
}

impl fmt::Display for VirtIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for VirtIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtIp({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let ip = VirtIp::new(1, 11, 11, 7);
        assert_eq!(ip.to_string(), "1.11.11.7");
        assert_eq!(VirtIp::parse("1.11.11.7"), Some(ip));
        assert_eq!(VirtIp::parse("1.11.11"), None);
        assert_eq!(VirtIp::parse("1.11.11.7.9"), None);
        assert_eq!(VirtIp::parse("300.1.1.1"), None);
    }
}
