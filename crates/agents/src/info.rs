//! Service and request information (paper Figs. 5–6).

use crate::xml::{parse, Element, XmlError};
use agentgrid_cluster::ExecEnv;
use agentgrid_sim::SimTime;
use std::sync::Arc;

/// A network endpoint: "the identity of a local scheduler and its
/// corresponding agent is provided by a tuple of the address and port".
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Host address (shared so cloning an endpoint is allocation-free).
    pub address: Arc<str>,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Convenience constructor.
    pub fn new(address: &str, port: u16) -> Endpoint {
        Endpoint {
            address: address.into(),
            port,
        }
    }
}

/// The service information a local scheduler submits to its agent and the
/// agent advertises through the hierarchy (Fig. 5).
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceInfo {
    /// The agent's endpoint.
    pub agent: Endpoint,
    /// The local scheduler's endpoint.
    pub local: Endpoint,
    /// Hardware model name, e.g. `"SunUltra10"` (shared: cloning a
    /// `ServiceInfo` — which the grid does on every advertisement —
    /// bumps reference counts instead of copying strings).
    pub machine_type: Arc<str>,
    /// Number of processing nodes.
    pub nproc: usize,
    /// Execution environments supported by the local scheduler.
    pub environments: Arc<[ExecEnv]>,
    /// The freetime item: the latest GA scheduling makespan — "the
    /// earliest (approximate) time that corresponding processors become
    /// available for more tasks". Changes over time; must be refreshed by
    /// advertisement.
    pub freetime: SimTime,
}

impl ServiceInfo {
    /// Whether the advertised scheduler supports `env`.
    pub fn supports(&self, env: ExecEnv) -> bool {
        self.environments.contains(&env)
    }

    /// Whether `other` has this document's static part — everything but
    /// `freetime` — by sharing its allocations, not by comparing their
    /// contents. Two documents cloned from one template always pass; a
    /// document rebuilt from scratch never does, even when equal.
    pub(crate) fn shares_static_part(&self, other: &ServiceInfo) -> bool {
        Arc::ptr_eq(&self.agent.address, &other.agent.address)
            && Arc::ptr_eq(&self.local.address, &other.local.address)
            && Arc::ptr_eq(&self.machine_type, &other.machine_type)
            && Arc::ptr_eq(&self.environments, &other.environments)
            && self.agent.port == other.agent.port
            && self.local.port == other.local.port
            && self.nproc == other.nproc
    }

    /// Encode as the Fig. 5 XML template.
    pub fn to_xml(&self) -> Element {
        let mut local = Element::new("local")
            .leaf("address", &self.local.address)
            .leaf("port", &self.local.port.to_string())
            .leaf("type", &self.machine_type)
            .leaf("nproc", &self.nproc.to_string());
        for env in self.environments.iter() {
            local = local.leaf("environment", env.as_str());
        }
        local = local.leaf("freetime", &format!("{:.6}", self.freetime.as_secs_f64()));
        Element::new("agentgrid")
            .attr("type", "service")
            .child(
                Element::new("agent")
                    .leaf("address", &self.agent.address)
                    .leaf("port", &self.agent.port.to_string()),
            )
            .child(local)
    }

    /// Decode from the Fig. 5 XML template.
    pub fn from_xml(doc: &Element) -> Result<ServiceInfo, InfoError> {
        expect_agentgrid(doc, "service")?;
        let agent = doc.find("agent").ok_or(InfoError::missing("agent"))?;
        let local = doc.find("local").ok_or(InfoError::missing("local"))?;
        let environments = local
            .find_all("environment")
            .map(|e| {
                e.text_content()
                    .parse::<ExecEnv>()
                    .map_err(InfoError::Invalid)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServiceInfo {
            agent: endpoint_of(agent)?,
            local: endpoint_of(local)?,
            machine_type: leaf(local, "type")?.into(),
            nproc: leaf(local, "nproc")?
                .parse()
                .map_err(|_| InfoError::invalid("nproc"))?,
            environments: environments.into(),
            freetime: SimTime::from_secs_f64(
                leaf(local, "freetime")?
                    .parse()
                    .map_err(|_| InfoError::invalid("freetime"))?,
            ),
        })
    }

    /// Parse from XML text.
    pub fn parse_str(text: &str) -> Result<ServiceInfo, InfoError> {
        let doc = parse(text).map_err(InfoError::Xml)?;
        ServiceInfo::from_xml(&doc)
    }
}

/// A user request for task execution (Fig. 6).
#[derive(Clone, Debug, PartialEq)]
pub struct RequestInfo {
    /// Application name, e.g. `"sweep3d"`.
    pub application: String,
    /// Path of the pre-compiled binary.
    pub binary_file: String,
    /// Path of the input file.
    pub input_file: String,
    /// Path of the PACE application performance model.
    pub model_name: String,
    /// Required execution environment.
    pub environment: ExecEnv,
    /// Required absolute deadline δᵣ.
    pub deadline: SimTime,
    /// Contact e-mail for results.
    pub email: String,
}

impl RequestInfo {
    /// Encode as the Fig. 6 XML template.
    pub fn to_xml(&self) -> Element {
        Element::new("agentgrid")
            .attr("type", "request")
            .child(
                Element::new("application")
                    .leaf("name", &self.application)
                    .child(
                        Element::new("binary")
                            .leaf("file", &self.binary_file)
                            .leaf("inputfile", &self.input_file),
                    )
                    .child(
                        Element::new("performance")
                            .leaf("datatype", "pacemodel")
                            .leaf("modelname", &self.model_name),
                    ),
            )
            .child(
                Element::new("requirement")
                    .leaf("environment", self.environment.as_str())
                    .leaf("deadline", &format!("{:.6}", self.deadline.as_secs_f64())),
            )
            .leaf("email", &self.email)
    }

    /// Decode from the Fig. 6 XML template.
    pub fn from_xml(doc: &Element) -> Result<RequestInfo, InfoError> {
        expect_agentgrid(doc, "request")?;
        let app = doc
            .find("application")
            .ok_or(InfoError::missing("application"))?;
        let binary = app.find("binary").ok_or(InfoError::missing("binary"))?;
        let perf = app
            .find("performance")
            .ok_or(InfoError::missing("performance"))?;
        let req = doc
            .find("requirement")
            .ok_or(InfoError::missing("requirement"))?;
        Ok(RequestInfo {
            application: leaf(app, "name")?,
            binary_file: leaf(binary, "file")?,
            input_file: leaf(binary, "inputfile")?,
            model_name: leaf(perf, "modelname")?,
            environment: leaf(req, "environment")?
                .parse::<ExecEnv>()
                .map_err(InfoError::Invalid)?,
            deadline: SimTime::from_secs_f64(
                leaf(req, "deadline")?
                    .parse()
                    .map_err(|_| InfoError::invalid("deadline"))?,
            ),
            email: leaf(doc, "email")?,
        })
    }

    /// Parse from XML text.
    pub fn parse_str(text: &str) -> Result<RequestInfo, InfoError> {
        let doc = parse(text).map_err(InfoError::Xml)?;
        RequestInfo::from_xml(&doc)
    }
}

/// Decoding failures.
#[derive(Clone, Debug, PartialEq)]
pub enum InfoError {
    /// The XML itself did not parse.
    Xml(XmlError),
    /// A required element is missing.
    Missing(String),
    /// A field failed to parse.
    Invalid(String),
}

impl InfoError {
    fn missing(what: &str) -> InfoError {
        InfoError::Missing(what.to_string())
    }
    fn invalid(what: &str) -> InfoError {
        InfoError::Invalid(format!("invalid {what}"))
    }
}

impl std::fmt::Display for InfoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfoError::Xml(e) => write!(f, "{e}"),
            InfoError::Missing(w) => write!(f, "missing element `{w}`"),
            InfoError::Invalid(w) => write!(f, "{w}"),
        }
    }
}

impl std::error::Error for InfoError {}

fn expect_agentgrid(doc: &Element, kind: &str) -> Result<(), InfoError> {
    if doc.name != "agentgrid" {
        return Err(InfoError::Invalid(format!(
            "expected <agentgrid>, found <{}>",
            doc.name
        )));
    }
    match doc.get_attr("type") {
        Some(t) if t == kind => Ok(()),
        other => Err(InfoError::Invalid(format!(
            "expected type=\"{kind}\", found {other:?}"
        ))),
    }
}

fn leaf(el: &Element, name: &str) -> Result<String, InfoError> {
    el.leaf_text(name).ok_or_else(|| InfoError::missing(name))
}

fn endpoint_of(el: &Element) -> Result<Endpoint, InfoError> {
    Ok(Endpoint {
        address: leaf(el, "address")?.into(),
        port: leaf(el, "port")?
            .parse()
            .map_err(|_| InfoError::invalid("port"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> ServiceInfo {
        ServiceInfo {
            agent: Endpoint::new("gem.dcs.warwick.ac.uk", 1000),
            local: Endpoint::new("gem.dcs.warwick.ac.uk", 10000),
            machine_type: "SunUltra10".into(),
            nproc: 16,
            environments: vec![ExecEnv::Mpi, ExecEnv::Pvm, ExecEnv::Test].into(),
            freetime: SimTime::from_secs_f64(160.25),
        }
    }

    fn request() -> RequestInfo {
        RequestInfo {
            application: "sweep3d".into(),
            binary_file: "/dcs/junwei/agentgrid/binary/sweep3d".into(),
            input_file: "/dcs/junwei/agentgrid/binary/input.50".into(),
            model_name: "/dcs/junwei/agentgrid/model/sweep3d".into(),
            environment: ExecEnv::Test,
            deadline: SimTime::from_secs_f64(443.5),
            email: "junwei@dcs.warwick.ac.uk".into(),
        }
    }

    #[test]
    fn service_info_roundtrips_through_xml() {
        let s = service();
        let text = s.to_xml().render();
        let back = ServiceInfo::parse_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn request_info_roundtrips_through_xml() {
        let r = request();
        let text = r.to_xml().render();
        let back = RequestInfo::parse_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn service_xml_matches_fig5_structure() {
        let text = service().to_xml().render();
        for needle in [
            "agentgrid type=\"service\"",
            "<agent>",
            "<local>",
            "<type>SunUltra10</type>",
            "<nproc>16</nproc>",
            "<environment>mpi</environment>",
            "<freetime>",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn request_xml_matches_fig6_structure() {
        let text = request().to_xml().render();
        for needle in [
            "agentgrid type=\"request\"",
            "<application>",
            "<binary>",
            "<performance>",
            "<datatype>pacemodel</datatype>",
            "<requirement>",
            "<deadline>",
            "<email>junwei@dcs.warwick.ac.uk</email>",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn supports_checks_environment_list() {
        let s = service();
        assert!(s.supports(ExecEnv::Mpi));
        let mut s2 = s.clone();
        s2.environments = vec![ExecEnv::Test].into();
        assert!(!s2.supports(ExecEnv::Mpi));
    }

    #[test]
    fn wrong_document_kind_is_rejected() {
        let text = service().to_xml().render();
        assert!(matches!(
            RequestInfo::parse_str(&text),
            Err(InfoError::Invalid(_))
        ));
        let text = request().to_xml().render();
        assert!(matches!(
            ServiceInfo::parse_str(&text),
            Err(InfoError::Invalid(_))
        ));
    }

    #[test]
    fn missing_elements_are_reported() {
        let doc = "<agentgrid type=\"service\"><agent><address>x</address><port>1</port></agent></agentgrid>";
        assert_eq!(
            ServiceInfo::parse_str(doc),
            Err(InfoError::Missing("local".into()))
        );
    }

    #[test]
    fn bad_numbers_are_reported() {
        let mut text = service().to_xml().render();
        text = text.replace("<nproc>16</nproc>", "<nproc>many</nproc>");
        assert!(matches!(
            ServiceInfo::parse_str(&text),
            Err(InfoError::Invalid(_))
        ));
    }

    #[test]
    fn unknown_environment_is_rejected() {
        let mut text = service().to_xml().render();
        text = text.replace(
            "<environment>mpi</environment>",
            "<environment>condor</environment>",
        );
        assert!(matches!(
            ServiceInfo::parse_str(&text),
            Err(InfoError::Invalid(_))
        ));
    }
}
