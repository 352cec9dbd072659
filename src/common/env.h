// Process-environment switches.

#ifndef WSV_COMMON_ENV_H_
#define WSV_COMMON_ENV_H_

namespace wsv {

/// True iff the environment variable `name` is set to a non-empty value
/// other than "0". The one parsing rule for every WSV_DISABLE_* switch:
/// `WSV_DISABLE_X=1` turns X off, `WSV_DISABLE_X=0` or an empty value
/// leaves it on. Reads the environment on every call; callers that want
/// one value per process cache it.
bool EnvFlagSet(const char* name);

}  // namespace wsv

#endif  // WSV_COMMON_ENV_H_
