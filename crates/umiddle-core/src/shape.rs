//! Service Shaping: representing device semantics as typed ports.
//!
//! Following the paper's §3.3, a native device is projected into the
//! intermediary semantic space as a *shape*: a set of communication
//! endpoints called ports.
//!
//! * A **digital port** transmits digital information to and from the
//!   network, tagged with a MIME type.
//! * A **physical port** is a conceptual entity that causes or senses a
//!   perceptible change in the physical world, tagged with a *perception
//!   type* (visible, audible, tangible) and a *media type* (paper, screen,
//!   air, …).
//!
//! The paper's PostScript printer example is a shape with a `text/ps`
//! digital input port and a `visible/paper` physical output port.

use std::fmt;
use std::str::FromStr;

use crate::error::CoreError;
use crate::mime::MimeType;

/// How a user perceives the effect of a physical port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PerceptionType {
    /// Perceived by sight (screens, lamps, paper).
    Visible,
    /// Perceived by hearing (speakers).
    Audible,
    /// Perceived by touch (actuators, haptics, temperature).
    Tangible,
    /// Wildcard used in queries: matches any perception type.
    Any,
}

impl PerceptionType {
    /// Returns `true` if the two perception types match, treating
    /// [`PerceptionType::Any`] on either side as matching anything.
    pub fn matches(self, other: PerceptionType) -> bool {
        self == PerceptionType::Any || other == PerceptionType::Any || self == other
    }
}

impl fmt::Display for PerceptionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PerceptionType::Visible => "visible",
            PerceptionType::Audible => "audible",
            PerceptionType::Tangible => "tangible",
            PerceptionType::Any => "*",
        };
        f.write_str(s)
    }
}

impl FromStr for PerceptionType {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<PerceptionType, CoreError> {
        match s {
            "visible" => Ok(PerceptionType::Visible),
            "audible" => Ok(PerceptionType::Audible),
            "tangible" => Ok(PerceptionType::Tangible),
            "*" => Ok(PerceptionType::Any),
            other => Err(CoreError::Invalid(format!(
                "unknown perception type {other:?}"
            ))),
        }
    }
}

/// Direction of a port, from the owning device's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// The device consumes data/effects through this port.
    Input,
    /// The device produces data/effects through this port.
    Output,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Input => Direction::Output,
            Direction::Output => Direction::Input,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Direction::Input => "input",
            Direction::Output => "output",
        })
    }
}

impl FromStr for Direction {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Direction, CoreError> {
        match s {
            "input" => Ok(Direction::Input),
            "output" => Ok(Direction::Output),
            other => Err(CoreError::Invalid(format!("unknown direction {other:?}"))),
        }
    }
}

/// The typed payload of a port: digital (MIME-typed) or physical
/// (perception + media typed).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortKind {
    /// A digital communication endpoint carrying `MimeType`-typed data.
    Digital(MimeType),
    /// A physical affordance: how it is perceived and through what medium.
    Physical {
        /// How users perceive the effect.
        perception: PerceptionType,
        /// The physical medium carrying the effect (`paper`, `screen`,
        /// `air`, or `*` as a query wildcard).
        media: String,
    },
}

impl PortKind {
    /// Creates a physical port kind, normalizing the media type to
    /// lowercase.
    pub fn physical(perception: PerceptionType, media: &str) -> PortKind {
        PortKind::Physical {
            perception,
            media: media.to_ascii_lowercase(),
        }
    }

    /// Returns `true` if two port kinds carry matching types (wildcards on
    /// either side match). Digital never matches physical.
    pub fn matches(&self, other: &PortKind) -> bool {
        match (self, other) {
            (PortKind::Digital(a), PortKind::Digital(b)) => a.matches(b),
            (
                PortKind::Physical {
                    perception: pa,
                    media: ma,
                },
                PortKind::Physical {
                    perception: pb,
                    media: mb,
                },
            ) => pa.matches(*pb) && (ma == "*" || mb == "*" || ma == mb),
            _ => false,
        }
    }

    /// Returns the MIME type for digital ports.
    pub fn mime(&self) -> Option<&MimeType> {
        match self {
            PortKind::Digital(m) => Some(m),
            PortKind::Physical { .. } => None,
        }
    }

    /// Returns `true` for digital port kinds.
    pub fn is_digital(&self) -> bool {
        matches!(self, PortKind::Digital(_))
    }
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::Digital(m) => write!(f, "digital:{m}"),
            PortKind::Physical { perception, media } => {
                write!(f, "physical:{perception}/{media}")
            }
        }
    }
}

/// One port in a shape: a named, directed, typed endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortSpec {
    /// Name, unique within the owning shape.
    pub name: String,
    /// Input or output, from the device's point of view.
    pub direction: Direction,
    /// The carried data/effect type.
    pub kind: PortKind,
}

impl PortSpec {
    /// Creates a digital port spec.
    pub fn digital(name: impl Into<String>, direction: Direction, mime: MimeType) -> PortSpec {
        PortSpec {
            name: name.into(),
            direction,
            kind: PortKind::Digital(mime),
        }
    }

    /// Creates a physical port spec.
    pub fn physical(
        name: impl Into<String>,
        direction: Direction,
        perception: PerceptionType,
        media: &str,
    ) -> PortSpec {
        PortSpec {
            name: name.into(),
            direction,
            kind: PortKind::physical(perception, media),
        }
    }
}

impl fmt::Display for PortSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.direction, self.kind)
    }
}

/// A device's shape: the full set of its ports.
///
/// The shape "represents the affordances of the device with which the
/// translator is attached" (paper §3.3). Two devices are interoperable
/// when one's output port matches the other's input port.
///
/// # Examples
///
/// The paper's PostScript printer:
///
/// ```
/// use umiddle_core::{Direction, PerceptionType, PortSpec, Shape};
///
/// let printer = Shape::builder()
///     .port(PortSpec::digital("doc-in", Direction::Input, "text/ps".parse()?))
///     .port(PortSpec::physical(
///         "printed-page",
///         Direction::Output,
///         PerceptionType::Visible,
///         "paper",
///     ))
///     .build()?;
/// assert_eq!(printer.ports().len(), 2);
/// # Ok::<(), umiddle_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    ports: Vec<PortSpec>,
}

impl Shape {
    /// Starts building a shape.
    pub fn builder() -> ShapeBuilder {
        ShapeBuilder { ports: Vec::new() }
    }

    /// Creates a shape from ports.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicatePort`] if two ports share a name.
    pub fn from_ports(ports: Vec<PortSpec>) -> Result<Shape, CoreError> {
        for (i, p) in ports.iter().enumerate() {
            if ports[..i].iter().any(|q| q.name == p.name) {
                return Err(CoreError::DuplicatePort(p.name.clone()));
            }
        }
        Ok(Shape { ports })
    }

    /// All ports, in declaration order.
    pub fn ports(&self) -> &[PortSpec] {
        &self.ports
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&PortSpec> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Iterates over ports with the given direction.
    pub fn ports_in(&self, direction: Direction) -> impl Iterator<Item = &PortSpec> {
        self.ports.iter().filter(move |p| p.direction == direction)
    }

    /// Returns `true` if this shape has a port matching `direction` and
    /// `kind` (with wildcard semantics).
    pub fn has_matching_port(&self, direction: Direction, kind: &PortKind) -> bool {
        self.ports
            .iter()
            .any(|p| p.direction == direction && p.kind.matches(kind))
    }

    /// The input port a dynamic binding attaches to: the first digital
    /// input, in declaration order, whose type accepts `src_kind`.
    pub(crate) fn binding_input(&self, src_kind: &PortKind) -> Option<&PortSpec> {
        self.ports_in(Direction::Input)
            .find(|p| p.kind.is_digital() && p.kind.matches(src_kind))
    }

    /// Finds ports on `self` and `other` that can be wired together:
    /// returns pairs `(our output port, their input port)` with matching
    /// data types. This is the compatibility relation of Service Shaping.
    pub fn connectable_to<'a>(&'a self, other: &'a Shape) -> Vec<(&'a PortSpec, &'a PortSpec)> {
        let mut pairs = Vec::new();
        for out in self.ports_in(Direction::Output) {
            if !out.kind.is_digital() {
                continue;
            }
            for inp in other.ports_in(Direction::Input) {
                if inp.kind.is_digital() && out.kind.matches(&inp.kind) {
                    pairs.push((out, inp));
                }
            }
        }
        pairs
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.ports.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Incrementally builds a [`Shape`].
#[derive(Debug, Clone)]
pub struct ShapeBuilder {
    ports: Vec<PortSpec>,
}

impl ShapeBuilder {
    /// Adds a port.
    pub fn port(mut self, port: PortSpec) -> ShapeBuilder {
        self.ports.push(port);
        self
    }

    /// Adds a digital port.
    pub fn digital(self, name: &str, direction: Direction, mime: MimeType) -> ShapeBuilder {
        self.port(PortSpec::digital(name, direction, mime))
    }

    /// Adds a physical port.
    pub fn physical(
        self,
        name: &str,
        direction: Direction,
        perception: PerceptionType,
        media: &str,
    ) -> ShapeBuilder {
        self.port(PortSpec::physical(name, direction, perception, media))
    }

    /// Finishes the shape.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicatePort`] if two ports share a name.
    pub fn build(self) -> Result<Shape, CoreError> {
        Shape::from_ports(self.ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mime(s: &str) -> MimeType {
        s.parse().unwrap()
    }

    #[test]
    fn duplicate_port_names_rejected() {
        let err = Shape::builder()
            .digital("x", Direction::Input, mime("a/b"))
            .digital("x", Direction::Output, mime("a/b"))
            .build()
            .unwrap_err();
        assert_eq!(err, CoreError::DuplicatePort("x".to_owned()));
    }

    #[test]
    fn digital_never_matches_physical() {
        let d = PortKind::Digital(mime("image/jpeg"));
        let p = PortKind::physical(PerceptionType::Visible, "screen");
        assert!(!d.matches(&p));
        assert!(!p.matches(&d));
    }

    #[test]
    fn physical_wildcards() {
        let paper = PortKind::physical(PerceptionType::Visible, "paper");
        let any_visible = PortKind::physical(PerceptionType::Visible, "*");
        let anything = PortKind::physical(PerceptionType::Any, "*");
        assert!(paper.matches(&any_visible));
        assert!(paper.matches(&anything));
        assert!(!paper.matches(&PortKind::physical(PerceptionType::Audible, "*")));
    }

    #[test]
    fn printer_example_from_paper() {
        let printer = Shape::builder()
            .digital("doc-in", Direction::Input, mime("text/ps"))
            .physical(
                "printed-page",
                Direction::Output,
                PerceptionType::Visible,
                "paper",
            )
            .build()
            .unwrap();
        // "view a document": visible/*.
        assert!(printer.has_matching_port(
            Direction::Output,
            &PortKind::physical(PerceptionType::Visible, "*")
        ));
        // "print it": visible/paper.
        assert!(printer.has_matching_port(
            Direction::Output,
            &PortKind::physical(PerceptionType::Visible, "paper")
        ));
        // But it does not render to a screen.
        assert!(!printer.has_matching_port(
            Direction::Output,
            &PortKind::physical(PerceptionType::Visible, "screen")
        ));
    }

    #[test]
    fn camera_tv_connectable() {
        let camera = Shape::builder()
            .digital("image-out", Direction::Output, mime("image/jpeg"))
            .build()
            .unwrap();
        let tv = Shape::builder()
            .digital("media-in", Direction::Input, mime("image/*"))
            .physical(
                "display",
                Direction::Output,
                PerceptionType::Visible,
                "screen",
            )
            .build()
            .unwrap();
        let pairs = camera.connectable_to(&tv);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.name, "image-out");
        assert_eq!(pairs[0].1.name, "media-in");
        // The reverse direction has no output->input pair.
        assert!(tv.connectable_to(&camera).is_empty());
    }

    #[test]
    fn ports_in_filters_by_direction() {
        let s = Shape::builder()
            .digital("a", Direction::Input, mime("x/y"))
            .digital("b", Direction::Output, mime("x/y"))
            .digital("c", Direction::Input, mime("x/z"))
            .build()
            .unwrap();
        let inputs: Vec<&str> = s
            .ports_in(Direction::Input)
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(inputs, vec!["a", "c"]);
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Input.reverse(), Direction::Output);
        assert_eq!(Direction::Output.reverse(), Direction::Input);
    }

    #[test]
    fn perception_parse_round_trip() {
        for p in [
            PerceptionType::Visible,
            PerceptionType::Audible,
            PerceptionType::Tangible,
            PerceptionType::Any,
        ] {
            assert_eq!(p.to_string().parse::<PerceptionType>().unwrap(), p);
        }
        assert!("smellable".parse::<PerceptionType>().is_err());
    }
}
