"""Photo-based second-factor authentication engine.

A login is confirmed by photographing the PC browser with the phone:
the server reads the domain out of the photographed address bar and
compares it with its own name, which a live relay proxy cannot fake.
"""

from .decision import (
    AuthDecision,
    AuthEngine,
    AuthRequest,
    ColocationMode,
    ColocationPolicy,
    DecisionKind,
    LinkClick,
    UnknownUser,
)
from .domain import (
    DomainName,
    confusable_mutate,
    domains_equal,
    extract_hostname,
    to_punycode,
)
from .geometry import (
    BoundingBox,
    Resolution,
    area,
    cover_rate,
    intersection_area,
    iou,
)
from .session import (
    Channel,
    Cookie,
    InvalidState,
    Preference,
    RateLimited,
    Session,
    SessionState,
    SessionStore,
    ShortLinkToken,
)
from .verify import (
    AddressBarPrediction,
    ExtractionKind,
    PhotoAnalysis,
    TextRegion,
    VerdictKind,
    VerifyConfig,
    extract_domain,
    score_detection,
    verify_photo,
)

__version__ = "0.1.0"
