//! Distinguished names.
//!
//! GIS records are addressed by distinguished names such as
//! `hn=vm.ucsd.edu, ou=Concurrent Systems Architecture Group, o=Grid`
//! (paper Fig 3). A DN is a sequence of relative DNs (attribute=value
//! pairs) ordered leaf-first; the directory tree hangs records under their
//! parent DN.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;

/// One `attr=value` component of a distinguished name.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rdn {
    /// Attribute name (normalized to lowercase): the schema's constant,
    /// or the text a parsed DN gave.
    pub attr: Cow<'static, str>,
    /// Attribute value (as written), shared with a record attribute
    /// that repeats it.
    pub value: Rc<str>,
}

impl Rdn {
    /// Create an RDN with a schema attribute name; the name is
    /// lowercased.
    pub fn new(attr: &'static str, value: impl Into<Rc<str>>) -> Self {
        let attr = if attr.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(attr.to_ascii_lowercase())
        } else {
            Cow::Borrowed(attr)
        };
        Rdn {
            attr,
            value: value.into(),
        }
    }
}

/// What [`Dn`]'s text form puts between components.
const SEPARATOR: &str = ", ";

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.attr, self.value)
    }
}

/// A distinguished name: RDNs ordered leaf-first (`hn=x, ou=y, o=Grid`).
///
/// A DN is its leaf RDN and a shared handle to its parent DN, so every
/// child of one base DN ([`Dn::child`]) shares the base's RDNs instead
/// of copying them. The empty DN is the root.
#[derive(Clone, Default)]
pub struct Dn(Option<Rc<DnNode>>);

struct DnNode {
    rdn: Rdn,
    parent: Dn,
}

/// Error parsing a DN string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnParseError(pub String);

impl fmt::Display for DnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DN: {}", self.0)
    }
}

impl std::error::Error for DnParseError {}

impl Dn {
    /// Build from leaf-first RDNs.
    pub fn from_rdns(rdns: Vec<Rdn>) -> Self {
        rdns.into_iter()
            .rev()
            .fold(Dn::default(), |parent, rdn| parent.child(rdn))
    }

    /// Parse `attr=value, attr=value, ...` (leaf first, comma separated).
    pub fn parse(s: &str) -> Result<Self, DnParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Dn::default());
        }
        let mut rdns = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            let (attr, value) = part
                .split_once('=')
                .ok_or_else(|| DnParseError(format!("component without '=': {part:?}")))?;
            let attr = attr.trim();
            let value = value.trim();
            if attr.is_empty() || value.is_empty() {
                return Err(DnParseError(format!("empty attr or value in {part:?}")));
            }
            rdns.push(Rdn {
                attr: Cow::Owned(attr.to_ascii_lowercase()),
                value: value.into(),
            });
        }
        Ok(Dn::from_rdns(rdns))
    }

    /// Leaf-first RDNs.
    pub fn rdns(&self) -> impl Iterator<Item = &Rdn> {
        std::iter::successors(self.0.as_deref(), |node| node.parent.0.as_deref())
            .map(|node| &node.rdn)
    }

    /// The DN without its leaf RDN; `None` for the root (empty) DN.
    pub fn parent(&self) -> Option<&Dn> {
        self.0.as_deref().map(|node| &node.parent)
    }

    /// A child of this DN with the extra leaf RDN, sharing this DN.
    pub fn child(&self, rdn: Rdn) -> Dn {
        Dn(Some(Rc::new(DnNode {
            rdn,
            parent: self.clone(),
        })))
    }

    /// This DN's text form as [`fmt::Display`] writes it, in pieces,
    /// without building the text.
    fn text_pieces(&self) -> TextPieces<'_> {
        TextPieces {
            node: self.0.as_deref(),
            next: 0,
        }
    }
}

/// The pieces of a DN's text: each RDN's attribute, `=` and value, with
/// [`SEPARATOR`] between RDNs.
struct TextPieces<'a> {
    node: Option<&'a DnNode>,
    /// Which piece of `node` comes next: 0 attribute, 1 `=`, 2 value,
    /// 3 separator.
    next: u8,
}

impl<'a> Iterator for TextPieces<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let node = self.node?;
        let piece = match self.next {
            0 => &*node.rdn.attr,
            1 => "=",
            2 => &*node.rdn.value,
            _ => SEPARATOR,
        };
        self.next += 1;
        let parent = node.parent.0.as_deref();
        if self.next == 4 || (self.next == 3 && parent.is_none()) {
            (self.node, self.next) = (parent, 0);
        }
        Some(piece.as_bytes())
    }
}

/// Compare two texts given in pieces, a common run of bytes at a time.
fn cmp_text<'a>(
    mut a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'a [u8]>,
) -> Ordering {
    let (mut x, mut y): (&[u8], &[u8]) = (&[], &[]);
    loop {
        while x.is_empty() {
            let Some(piece) = a.next() else { break };
            x = piece;
        }
        while y.is_empty() {
            let Some(piece) = b.next() else { break };
            y = piece;
        }
        if x.is_empty() || y.is_empty() {
            // One text ended: it is the smaller unless both did.
            return x.len().cmp(&y.len());
        }
        let n = x.len().min(y.len());
        match x[..n].cmp(&y[..n]) {
            Ordering::Equal => (x, y) = (&x[n..], &y[n..]),
            unequal => return unequal,
        }
    }
}

impl PartialEq for Dn {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) if Rc::ptr_eq(a, b) => true,
            _ => self.rdns().eq(other.rdns()),
        }
    }
}

impl Eq for Dn {}

/// DNs sort as their text does; two distinct DNs with the same text (a
/// value holding the separator) then sort RDN by RDN.
impl Ord for Dn {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) if Rc::ptr_eq(a, b) => Ordering::Equal,
            _ => cmp_text(self.text_pieces(), other.text_pieces())
                .then_with(|| self.rdns().cmp(other.rdns())),
        }
    }
}

impl PartialOrd for Dn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rdns()).finish()
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rdn) in self.rdns().enumerate() {
            if i > 0 {
                f.write_str(SEPARATOR)?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let dn = Dn::parse("hn=vm.ucsd.edu, ou=CSAG, o=Grid").unwrap();
        assert_eq!(dn.rdns().count(), 3);
        assert_eq!(dn.rdns().next(), Some(&Rdn::new("hn", "vm.ucsd.edu")));
        assert_eq!(dn.to_string(), "hn=vm.ucsd.edu, ou=CSAG, o=Grid");
    }

    #[test]
    fn attr_names_are_case_insensitive() {
        let a = Dn::parse("HN=x, OU=y").unwrap();
        let b = Dn::parse("hn=x, ou=y").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn child_prepends_the_leaf() {
        let dn = Dn::parse("hn=x, ou=y, o=Grid").unwrap();
        let parent = Dn::parse("ou=y, o=Grid").unwrap();
        let child = parent.child(Rdn::new("hn", "x"));
        assert_eq!(child, dn);
        assert_eq!(child.parent(), Some(&parent));
        assert!(Dn::default().parent().is_none());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Dn::parse("no-equals").is_err());
        assert!(Dn::parse("=value").is_err());
        assert!(Dn::parse("attr=").is_err());
    }

    #[test]
    fn empty_text_is_the_empty_dn() {
        let root = Dn::parse("").unwrap();
        assert_eq!(root.rdns().count(), 0);
        assert_eq!(root.to_string(), "");
    }
}
