package repro.parse

/** Message preprocessing shared by every parser.
  *
  * Implements the paper's recommended preliminary step (§IV): extract
  * structured (JSON) data concatenated to the free text *before* parsing,
  * which shortens messages and raises template-discovery rates. No
  * human-crafted variable masking is applied: removing that expert step
  * is the automation goal the paper sets.
  */
object Preprocess {

  /** Space tokenization — the paper's token definition (§IV). */
  def tokenize(message: String): Vector[String] =
    message.trim.split("\\s+").filter(_.nonEmpty).toVector

  private val TrailingJson = """\s*(\{.*\})\s*$""".r

  /** Split a message into (free text, structured payload string).
    * Only a trailing `{...}` block is treated as structured data, the
    * common "API-like service" pattern the paper describes.
    */
  def extractStructured(message: String): (String, Option[String]) =
    TrailingJson.findFirstMatchIn(message) match {
      case Some(m) if m.start > 0 => (message.substring(0, m.start).trim, Some(m.group(1)))
      case _                      => (message.trim, None)
    }

  private val JsonPair = """"([^"]+)"\s*:\s*"?([^,}"]*)"?""".r

  /** Shallow key→value extraction from a flat JSON payload. */
  def parsePayload(payload: String): Seq[(String, String)] =
    JsonPair.findAllMatchIn(payload).map(m => (m.group(1), m.group(2).trim)).toSeq

  private val Num    = """^\d+(\.\d+)?$""".r
  private val Ip     = """^/?\d{1,3}(\.\d{1,3}){3}(:\d+)?,?$""".r
  private val HexId  = """^(blk|vol|req|i)[-_][\w-]+$""".r

  /** Does the token look like a variable (number, IP, id)? Used for
    * Drain's digit-aware tree descent and by the semantic matcher.
    */
  def looksVariable(tok: String): Boolean = {
    val t = tok.stripSuffix(",")
    Num.matches(t) || Ip.matches(t) || HexId.matches(t) || t.exists(_.isDigit)
  }
}
